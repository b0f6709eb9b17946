"""Service-level tests of the parallel runtime: the determinism invariants.

The three acceptance invariants of the runtime subsystem:

* pooled ``estimate_many`` is bitwise-equal to the serial path,
* coalesced ``estimate`` calls return exactly what direct calls return,
* a restarted service on the same persistent cache dir re-serves its warm set
  from disk with identical predictions and zero featurisation.
"""

import threading

import numpy as np
import pytest

from repro.flow.dataset_gen import DatasetConfig, DatasetGenerator
from repro.flow.powergear import PowerGear, PowerGearConfig
from repro.gnn.config import GNNConfig
from repro.gnn.trainer import TrainingConfig
from repro.kernels.polybench import polybench_kernel
from repro.runtime import RuntimeConfig
from repro.runtime.cache import INDEX_NAME, JOURNAL_NAME
from repro.serve import EstimateRequest, PowerEstimationService, ServiceMetrics

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
def atax_requests():
    generator = DatasetGenerator(SERVICE_CONFIG)
    kernel = polybench_kernel("atax", SERVICE_CONFIG.kernel_size)
    return [
        EstimateRequest(kernel="atax", directives=directives)
        for directives in generator.design_space_for(kernel)
    ]


def build_service(model, **runtime_kwargs) -> PowerEstimationService:
    runtime = RuntimeConfig(**runtime_kwargs) if runtime_kwargs else None
    return PowerEstimationService(
        model, generator=DatasetGenerator(SERVICE_CONFIG), runtime=runtime
    )


def test_runtime_config_validation():
    with pytest.raises(ValueError):
        RuntimeConfig(num_workers=-1)
    with pytest.raises(ValueError):
        RuntimeConfig(start_method="thread")
    with pytest.raises(ValueError):
        RuntimeConfig(coalesce_max_batch=0)
    with pytest.raises(ValueError):
        RuntimeConfig(coalesce_window_ms=-1.0)
    with pytest.raises(ValueError):
        RuntimeConfig(persistent_cache_max_bytes=0)
    defaults = RuntimeConfig()
    assert not defaults.parallel_featurisation
    assert not defaults.coalescing_enabled
    assert not defaults.persistence_enabled


def test_pooled_estimate_many_is_bitwise_equal_to_serial(served_model, atax_requests):
    serial_service = build_service(served_model)
    serial = serial_service.estimate_many(atax_requests)

    with build_service(
        served_model, num_workers=2, min_designs_per_worker=1
    ) as pooled_service:
        pooled = pooled_service.estimate_many(atax_requests)
        snapshot = pooled_service.metrics.snapshot()
        assert snapshot["pooled_featurised"] == len(atax_requests)
        assert pooled_service.runtime_stats()["pool"]["designs"] == len(atax_requests)

    # Bitwise: not allclose — the exact same floats.
    assert [response.power for response in pooled] == [
        response.power for response in serial
    ]
    assert [response.directives for response in pooled] == [
        response.directives for response in serial
    ]


def test_small_batches_stay_serial(served_model, atax_requests):
    """Below the per-worker threshold the pool is bypassed entirely."""
    with build_service(
        served_model, num_workers=2, min_designs_per_worker=100
    ) as service:
        service.estimate_many(atax_requests[:2])
        assert service.metrics.snapshot()["pooled_featurised"] == 0
        pool_stats = service.runtime_stats()["pool"]
        assert pool_stats is None or pool_stats["batches"] == 0


def test_coalesced_estimate_equals_direct_call(served_model, atax_requests):
    """Coalesced responses equal direct ones to floating-point round-off.

    Featurisation (and therefore every cache key) is bitwise-identical on both
    paths; the predicted values go through `predict_batch` with different pack
    sizes, whose contract is equality to round-off (<< 1e-8), so that is what
    is asserted for the power values.
    """
    direct_service = build_service(served_model)
    direct = direct_service.estimate_many(atax_requests)

    with build_service(
        served_model, coalesce_window_ms=250.0, coalesce_max_batch=5
    ) as service:
        results = [None] * len(atax_requests)

        def call(slot: int) -> None:
            results[slot] = service.estimate(atax_requests[slot])

        threads = [
            threading.Thread(target=call, args=(slot,))
            for slot in range(len(atax_requests))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)

        assert np.allclose(
            [response.power for response in results],
            [response.power for response in direct],
            atol=1e-8,
        )
        assert [response.directives for response in results] == [
            response.directives for response in direct
        ]
        coalescer = service.runtime_stats()["coalescer"]
        assert coalescer["items"] == len(atax_requests)
        # 10 concurrent callers over max_batch=5 cannot take 10 batches.
        assert coalescer["batches"] < len(atax_requests)


def test_coalesced_bad_request_fails_alone(served_model, atax_requests):
    """One caller's bad request must not poison its batch-mates' responses."""
    direct_service = build_service(served_model)
    good_direct = direct_service.estimate(atax_requests[0])

    with build_service(
        served_model, coalesce_window_ms=250.0, coalesce_max_batch=2
    ) as service:
        outcomes = [None, None]

        def call(slot: int, request) -> None:
            try:
                outcomes[slot] = service.estimate(request)
            except Exception as error:  # noqa: BLE001 - the asserted outcome
                outcomes[slot] = error

        bad_request = EstimateRequest(
            kernel="no-such-kernel", directives=atax_requests[0].directives
        )
        threads = [
            threading.Thread(target=call, args=(0, atax_requests[0])),
            threading.Thread(target=call, args=(1, bad_request)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)

    assert isinstance(outcomes[1], Exception)
    assert not isinstance(outcomes[0], Exception)
    assert outcomes[0].power == good_direct.power


def test_persistent_cache_survives_service_restart(served_model, atax_requests, tmp_path):
    """Acceptance: a restarted service serves its second run from disk."""
    cache_dir = tmp_path / "warm"
    with build_service(
        served_model, persistent_cache_dir=cache_dir
    ) as first_service:
        first = first_service.estimate_many(atax_requests)
        assert first_service.metrics.snapshot()["featurised"] == len(atax_requests)

    # A brand-new process would look exactly like this: fresh service object,
    # fresh memory tiers, same directory.
    with build_service(
        served_model, persistent_cache_dir=cache_dir
    ) as second_service:
        second = second_service.estimate_many(atax_requests)
        snapshot = second_service.metrics.snapshot()
        persistent = second_service.cache.stats()["persistent"]

    assert [response.power for response in second] == [
        response.power for response in first
    ]
    assert all(r.cached_features and r.cached_prediction for r in second)
    assert snapshot["featurised"] == 0
    assert snapshot["predicted"] == 0
    assert persistent["hit_rate"] > 0


def test_disk_tier_sync_is_timed_as_stage_and_span(served_model, atax_requests, tmp_path):
    """The per-batch disk-tier sync is visible: one fresh ``estimate_many``
    records one ``cache_sync`` stage observation and one ``cache.sync`` span;
    a service without a disk tier records neither."""

    def walk(span: dict):
        yield span
        for child in span.get("children", []):
            yield from walk(child)

    def sync_spans(service) -> list[dict]:
        return [
            span
            for trace in service.obs.tracer.recent()
            for span in walk(trace["root"])
            if span["name"] == "cache.sync"
        ]

    with build_service(served_model, persistent_cache_dir=tmp_path / "disk") as service:
        service.estimate_many(atax_requests)
        assert service.obs.stage_seconds.snapshot()["cache_sync"]["count"] == 1
        assert len(sync_spans(service)) == 1
    with build_service(served_model) as service:
        service.estimate_many(atax_requests)
        assert "cache_sync" not in service.obs.stage_seconds.snapshot()
        assert sync_spans(service) == []


def test_disk_tier_write_cost_reaches_metrics(served_model, atax_requests, tmp_path):
    """A fresh batch's sync appends one journal record per put and rewrites
    no snapshot; ``/metrics`` reports both counters, and close compacts."""
    cache_dir = tmp_path / "disk"
    with build_service(served_model, persistent_cache_dir=cache_dir) as service:
        service.estimate_many(atax_requests)
        persistent = service.metrics_snapshot()["runtime"]["cache"]["persistent"]
        journal = cache_dir / JOURNAL_NAME
        assert persistent["journal_bytes"] == journal.stat().st_size > 0
        assert journal.read_bytes().count(b"\n") == 2 * len(atax_requests)
        assert persistent["compactions"] == 0
        assert not (cache_dir / INDEX_NAME).exists()
    assert journal.stat().st_size == 0
    assert (cache_dir / INDEX_NAME).is_file()


def test_explore_runs_on_the_runtime(served_model, tmp_path):
    """`explore` featurises its candidate space through the runtime-backed path."""
    with build_service(
        served_model,
        num_workers=2,
        min_designs_per_worker=1,
        persistent_cache_dir=tmp_path / "dse",
    ) as service:
        report = service.explore("atax", budget=0.4)
        assert report.num_candidates > 0
        assert service.metrics.snapshot()["pooled_featurised"] == report.num_candidates
        # Every sampled candidate went through the predictor in exactly one of
        # the recorded per-iteration batches.
        batched = [i for entry in report.result.history for i in entry["new_batch"]]
        assert sorted(batched) == sorted(report.result.sampled_indices)

    # The explored working set survives the restart: re-exploring featurises
    # nothing.
    with build_service(
        served_model,
        persistent_cache_dir=tmp_path / "dse",
    ) as warm_service:
        warm_report = warm_service.explore("atax", budget=0.4)
        assert warm_service.metrics.snapshot()["featurised"] == 0
        assert warm_report.adrs == report.adrs


def test_service_metrics_record_is_thread_safe():
    metrics = ServiceMetrics()
    threads = [
        threading.Thread(
            target=lambda: [
                metrics.record(requests=1, designs=2, total_seconds=0.5)
                for _ in range(200)
            ]
        )
        for _ in range(8)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    snapshot = metrics.snapshot()
    assert snapshot["requests"] == 1600
    assert snapshot["designs"] == 3200
    assert snapshot["total_seconds"] == pytest.approx(800.0)
    with pytest.raises(AttributeError):
        metrics.record(nonsense=1)
    with pytest.raises(AttributeError):
        metrics.record(_lock=1)


def test_close_is_idempotent_and_degrades_to_serial(served_model, atax_requests):
    service = build_service(
        served_model, coalesce_window_ms=10.0, num_workers=2, min_designs_per_worker=1
    )
    service.close()
    service.close()
    # The service stays usable but never resurrects worker processes, and
    # estimate() falls back to the direct path instead of the closed batcher.
    responses = service.estimate_many(atax_requests[:3])
    assert len(responses) == 3
    single = service.estimate(atax_requests[0])
    assert single.power == responses[0].power
    assert service.metrics.snapshot()["pooled_featurised"] == 0
    assert service.runtime_stats()["pool"] is None
    assert service.runtime_stats()["coalescer"] is None
