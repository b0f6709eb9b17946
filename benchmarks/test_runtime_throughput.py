"""Runtime throughput: the three serving-runtime levers, measured.

* **pooled vs serial featurisation** — the worker pool shards per-kernel
  featurisation (the dominant serving cost) across one worker process per
  usable core, clamped to 2..4; cold start to cold start, 4 workers should
  cut a design-space sweep by >= 2x on a machine with >= 4 usable cores.
  Pooled samples must be bitwise-identical to serial ones unconditionally.
* **coalesced vs one-at-a-time latency** — concurrent single-design
  ``estimate`` calls coalesce into packed forward passes instead of running
  one tiny forward each.
* **persistent-cache restart** — a restarted service pointed at the same
  cache directory serves its second run from disk: >0 disk hit rate,
  predictions identical to the first run's, zero featurisation.

Wall-clock assertions follow the repo convention: skipped on shared CI
runners (``CI=true``) and, for the pool, on machines with fewer than 4 usable
cores.  The correctness assertions always run.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from conftest import print_table
from gating import gate_reason, wall_clock_enforced
from repro.flow.dataset_gen import DatasetConfig, DatasetGenerator
from repro.flow.powergear import PowerGear, PowerGearConfig
from repro.gnn.config import GNNConfig
from repro.gnn.trainer import TrainingConfig
from repro.kernels.polybench import polybench_kernel
from repro.runtime import RuntimeConfig, WorkerPool, available_cpus
from repro.serve import EstimateRequest, PowerEstimationService
from repro.serve.cache import sample_fingerprint

TARGET_KERNEL = "atax"
#: Pool size cap, and the core count at which the >=2x assert is enforced.
MAX_POOL_WORKERS = 4
POOL_WORKERS = max(2, min(MAX_POOL_WORKERS, available_cpus()))
COALESCE_BATCH = 8


@pytest.mark.benchmark
@pytest.mark.slow
def test_runtime_throughput(benchmark, bench_scale, tmp_path):
    # The featurisation timing uses a widened design space (>= 96 points) and
    # a larger kernel (>= size 16, ~25 ms/design) so the measured region
    # dwarfs the pool's fixed cold-start cost (process forks + per-worker
    # baseline HLS); the serving parts run on the first `bench` designs.
    config = DatasetConfig(
        kernel_size=max(bench_scale.kernel_size, 16),
        designs_per_kernel=max(bench_scale.designs_per_kernel, 96),
    )
    kernel = polybench_kernel(TARGET_KERNEL, config.kernel_size)
    space = list(DatasetGenerator(config).design_space_for(kernel))
    serve_count = min(bench_scale.designs_per_kernel, len(space))
    requests = [
        EstimateRequest(kernel=TARGET_KERNEL, directives=point)
        for point in space[:serve_count]
    ]

    def run():
        # -- featurisation: serial vs pooled, cold start to cold start --------
        serial_start = time.perf_counter()
        serial_samples = DatasetGenerator(config).featurise(TARGET_KERNEL, space)
        serial_seconds = time.perf_counter() - serial_start

        pooled_start = time.perf_counter()
        with WorkerPool(config=config, num_workers=POOL_WORKERS) as pool:
            pooled_samples = pool.featurise(TARGET_KERNEL, space)
        pooled_seconds = time.perf_counter() - pooled_start

        # -- coalescing: one-at-a-time vs micro-batched singles ---------------
        model = PowerGear(
            PowerGearConfig(
                target="dynamic",
                gnn=GNNConfig(hidden_dim=bench_scale.hidden_dim, num_layers=3),
                training=TrainingConfig(
                    epochs=min(bench_scale.epochs, 40), batch_size=16, learning_rate=2e-3
                ),
                ensemble=None,
            )
        ).fit(serial_samples[:serve_count])
        single_requests = [
            EstimateRequest.from_sample(s) for s in serial_samples[:serve_count]
        ]

        direct_service = PowerEstimationService(model, generator=DatasetGenerator(config))
        direct_start = time.perf_counter()
        direct_responses = [direct_service.estimate(r) for r in single_requests]
        direct_seconds = time.perf_counter() - direct_start

        coalesced_service = PowerEstimationService(
            model,
            generator=DatasetGenerator(config),
            runtime=RuntimeConfig(
                coalesce_window_ms=25.0, coalesce_max_batch=COALESCE_BATCH
            ),
        )
        coalesced_responses = [None] * len(single_requests)

        def call(slot: int) -> None:
            coalesced_responses[slot] = coalesced_service.estimate(single_requests[slot])

        threads = [
            threading.Thread(target=call, args=(slot,))
            for slot in range(len(single_requests))
        ]
        coalesced_start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        coalesced_seconds = time.perf_counter() - coalesced_start
        coalescer_stats = coalesced_service.runtime_stats()["coalescer"]
        coalesced_service.close()

        # -- persistence: cold service vs restarted service on the same dir --
        cache_dir = tmp_path / "persistent"
        runtime = RuntimeConfig(persistent_cache_dir=cache_dir)
        cold_service = PowerEstimationService(
            model, generator=DatasetGenerator(config), runtime=runtime
        )
        cold_start = time.perf_counter()
        cold_responses = cold_service.estimate_many(requests)
        cold_seconds = time.perf_counter() - cold_start
        cold_service.close()

        warm_service = PowerEstimationService(
            model, generator=DatasetGenerator(config), runtime=runtime
        )
        warm_start = time.perf_counter()
        warm_responses = warm_service.estimate_many(requests)
        warm_seconds = time.perf_counter() - warm_start
        warm_metrics = warm_service.metrics.snapshot()
        warm_disk = warm_service.cache.stats()["persistent"]
        warm_service.close()

        return {
            "serial_samples": serial_samples,
            "pooled_samples": pooled_samples,
            "serial_seconds": serial_seconds,
            "pooled_seconds": pooled_seconds,
            "direct_responses": direct_responses,
            "coalesced_responses": coalesced_responses,
            "direct_seconds": direct_seconds,
            "coalesced_seconds": coalesced_seconds,
            "coalescer_stats": coalescer_stats,
            "cold_responses": cold_responses,
            "warm_responses": warm_responses,
            "cold_seconds": cold_seconds,
            "warm_seconds": warm_seconds,
            "warm_metrics": warm_metrics,
            "warm_disk": warm_disk,
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    designs = len(space)
    served = len(requests)
    serial_seconds = results["serial_seconds"]
    pooled_seconds = results["pooled_seconds"]
    pool_speedup = serial_seconds / pooled_seconds
    direct_seconds = results["direct_seconds"]
    coalesced_seconds = results["coalesced_seconds"]
    cold_seconds = results["cold_seconds"]
    warm_seconds = results["warm_seconds"]
    # The >=2x wall-clock assertion needs enough usable cores to actually run
    # the workers on, and shared CI runners are too noisy to time; record in
    # the tracked log whether this run enforced it or was gated.
    speedup_enforced = wall_clock_enforced(min_cores=MAX_POOL_WORKERS)
    print_table(
        f"Runtime featurisation throughput on the {TARGET_KERNEL} design space "
        f"({available_cpus()} usable cores; >=2x assert "
        f"{gate_reason(min_cores=MAX_POOL_WORKERS)})",
        ["Path", "Designs", "Seconds", "Designs/s", "Speedup"],
        [
            [
                "serial",
                str(designs),
                f"{serial_seconds:.3f}",
                f"{designs / serial_seconds:.1f}",
                "1.0x",
            ],
            [
                f"pool x{POOL_WORKERS}",
                str(designs),
                f"{pooled_seconds:.3f}",
                f"{designs / pooled_seconds:.1f}",
                f"{pool_speedup:.1f}x",
            ],
        ],
    )
    print_table(
        "Single-design estimate latency: direct vs coalesced "
        f"(window 25 ms, max batch {COALESCE_BATCH}, "
        f"{results['coalescer_stats']['batches']} flushes)",
        ["Path", "Designs", "Seconds", "Designs/s"],
        [
            [
                "one-at-a-time",
                str(served),
                f"{direct_seconds:.3f}",
                f"{served / direct_seconds:.1f}",
            ],
            [
                "coalesced",
                str(served),
                f"{coalesced_seconds:.3f}",
                f"{served / coalesced_seconds:.1f}",
            ],
        ],
    )
    print_table(
        "Service restart on a persistent cache dir",
        ["Run", "Designs", "Seconds", "Featurised", "Disk hit rate"],
        [
            [
                "cold",
                str(served),
                f"{cold_seconds:.3f}",
                str(served),
                "-",
            ],
            [
                "restarted",
                str(served),
                f"{warm_seconds:.3f}",
                str(results["warm_metrics"]["featurised"]),
                f"{results['warm_disk']['hit_rate']:.2f}",
            ],
        ],
    )

    # Correctness invariants: always enforced.
    assert [sample_fingerprint(s) for s in results["pooled_samples"]] == [
        sample_fingerprint(s) for s in results["serial_samples"]
    ], "pooled featurisation diverged from the serial path"
    assert np.allclose(
        [r.power for r in results["coalesced_responses"]],
        [r.power for r in results["direct_responses"]],
        atol=1e-8,
    ), "coalesced estimates diverged from direct calls"
    assert [r.power for r in results["warm_responses"]] == [
        r.power for r in results["cold_responses"]
    ], "restarted service predictions diverged"
    assert results["warm_metrics"]["featurised"] == 0
    assert results["warm_disk"]["hit_rate"] > 0

    if speedup_enforced:
        assert pool_speedup >= 2.0, (
            f"pooled featurisation is only {pool_speedup:.2f}x faster than serial "
            f"at {POOL_WORKERS} workers on {available_cpus()} cores"
        )
