"""Pooled prediction: shared-memory parameter blocks, shared array bundles
and the ForwardPool.

Determinism contract under test: sharding the packed forward across worker
processes on read-only shared-memory weights produces **bitwise-identical**
predictions to the serial ``PowerGear.predict_batch``, because each shard
runs the same member code on byte-identical inputs and the contiguous-shard
merge rebuilds the member stack in order — also across a real SIGKILL of a
forward worker mid-service.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
import time

import numpy as np
import pytest

from repro.flow.powergear import PowerGear, PowerGearConfig
from repro.gnn.config import GNNConfig
from repro.gnn.ensemble import EnsembleConfig
from repro.gnn.trainer import TrainingConfig
from repro.runtime import (
    ForwardPool,
    RuntimeConfig,
    SharedParameterBlock,
    attach_parameter_block,
    available_cpus,
)
from repro.runtime.pool import ForwardTask, _openblas_function
from repro.runtime.shm import SharedArrayBundle, attach_array_bundle
from repro.serve import EstimateRequest, PowerEstimationService

from test_serve_service import build_synthetic_samples


@pytest.fixture(scope="module")
def fitted_ensemble():
    samples = build_synthetic_samples(40, seed=21)
    model = PowerGear(
        PowerGearConfig(
            target="dynamic",
            gnn=GNNConfig(hidden_dim=10, num_layers=2),
            training=TrainingConfig(epochs=3, batch_size=16),
            ensemble=EnsembleConfig(folds=3, seeds=(0, 1)),  # 6 members
        )
    ).fit(samples[:28])
    return model, samples


@pytest.fixture(scope="module")
def ensemble_model():
    samples = build_synthetic_samples(36, seed=9)
    model = PowerGear(
        PowerGearConfig(
            target="dynamic",
            gnn=GNNConfig(hidden_dim=10, num_layers=2),
            training=TrainingConfig(epochs=3, batch_size=16),
            ensemble=EnsembleConfig(folds=2, seeds=(0, 1)),  # 4 members
        )
    ).fit(samples[:24])
    return model, samples


@pytest.fixture(scope="module")
def sigkill_ensemble():
    samples = build_synthetic_samples(40, seed=33)
    model = PowerGear(
        PowerGearConfig(
            target="dynamic",
            gnn=GNNConfig(hidden_dim=10, num_layers=2),
            training=TrainingConfig(epochs=3, batch_size=16),
            ensemble=EnsembleConfig(folds=2, seeds=(0, 1)),  # 4 members
        )
    ).fit(samples[:28])
    return model, samples


# ----------------------------------------------------- shared parameter block


def test_shared_parameter_block_roundtrip():
    rng = np.random.default_rng(0)
    members = [
        [rng.standard_normal((3, 4)), rng.standard_normal(4)],
        [rng.standard_normal((3, 4)), rng.standard_normal(4)],
    ]

    def check_views(views) -> None:
        # Scoped helper: the borrowed views must all be dead before the
        # segment is closed (they export pointers into its mapping).
        for member_views, member in zip(views, members):
            for view, array in zip(member_views, member):
                assert view.tobytes() == np.asarray(array).tobytes()
                assert not view.flags.writeable

    block = SharedParameterBlock.create(members)
    try:
        assert block.nbytes == 2 * (12 + 4) * 8
        check_views(block.views())
        # The spec round-trips through pickle (it rides in pool initargs).
        spec = pickle.loads(pickle.dumps(block.spec))
        shm, attached = attach_parameter_block(spec)
        try:
            check_views(attached)
        finally:
            del attached
            shm.close()
    finally:
        block.unlink()


def test_shared_parameter_block_rejects_empty():
    with pytest.raises(ValueError):
        SharedParameterBlock.create([])


# ------------------------------------------------------- shared array bundles


def test_shared_array_bundle_roundtrip_and_alignment():
    rng = np.random.default_rng(3)
    arrays = {
        "node_features": rng.standard_normal((21, 5)),
        "edge_index": rng.integers(0, 21, size=(2, 33)).astype(np.int64),
        "edge_types": rng.integers(0, 4, size=33).astype(np.int64),
        "odd_bytes": rng.standard_normal(7),  # 56 bytes: exercises padding
        "flags": rng.integers(0, 2, size=9).astype(np.bool_),
    }
    bundle = SharedArrayBundle.create(arrays)
    try:
        spec = pickle.loads(pickle.dumps(bundle.spec))  # rides in task pickles
        assert spec.fields == bundle.spec.fields
        shm, views = attach_array_bundle(spec)
        try:
            for name, array in arrays.items():
                view = views[name]
                assert view.shape == array.shape
                assert view.dtype == array.dtype
                assert view.tobytes() == array.tobytes()
                assert not view.flags.writeable
                # 16-byte field alignment: BLAS-friendly views, no copies.
                assert view.__array_interface__["data"][0] % 16 == 0
        finally:
            views.clear()
            del view
            shm.close()
    finally:
        bundle.unlink()
        bundle.unlink()  # idempotent owner-side teardown


# ------------------------------------------------------------- forward pool


def test_forward_pool_matches_serial_bitwise(fitted_ensemble):
    model, samples = fitted_ensemble
    queries = samples[28:]
    reference = model.predict_batch(queries, batch_size=5)
    with ForwardPool(model, num_workers=2) as pool:
        pooled = pool.predict_batch(queries, batch_size=5)
        # A second batch reuses the warm workers and the same segment.
        again = pool.predict_batch(queries, batch_size=5)
    assert pooled.tobytes() == reference.tobytes()
    assert again.tobytes() == reference.tobytes()
    assert pool.stats.batches == 2
    assert pool.stats.designs == 2 * len(queries)
    assert pool.stats.shared_bytes > 0
    assert pool.stats.member_forwards == 2 * 3 * pool.num_members  # 3 chunks


def _worker_blas_threads() -> int:
    return int(_openblas_function("get_num_threads")())


def test_forward_workers_pin_blas_to_one_thread(fitted_ensemble):
    """Each forward worker runs its GEMMs on one BLAS thread, so workers do
    not each start a thread per core and oversubscribe the machine."""
    if available_cpus() < 2 or _openblas_function("get_num_threads") is None:
        pytest.skip("needs >= 2 usable cores and numpy's bundled OpenBLAS")
    model, samples = fitted_ensemble
    with ForwardPool(model, num_workers=2) as pool:
        pool.predict_batch(samples[28:32])  # starts the initialised workers
        assert pool._pool.submit(_worker_blas_threads).result() == 1


def test_forward_pool_single_chunk_and_empty(fitted_ensemble):
    model, samples = fitted_ensemble
    queries = samples[28:]
    with ForwardPool(model, num_workers=3) as pool:
        assert pool.predict_batch([]).shape == (0,)
        reference = model.predict_batch(queries)
        assert pool.predict_batch(queries).tobytes() == reference.tobytes()


def test_forward_tasks_carry_no_weights_and_no_graphs(fitted_ensemble):
    """The payload-free task contract, enforced structurally.

    A task is a shared-segment spec plus member bounds: neither the ensemble's
    weights nor the packed batch's arrays ride in the pickle — both live in
    shared memory, the weights attached once per worker and the batch once
    per task.
    """
    from repro.runtime.shm import SharedArrayBundle

    model, samples = fitted_ensemble
    packed = model.ensemble.members[0].model.prepare_graph(samples[0].graph)
    bundle = SharedArrayBundle.create(
        {
            "node_features": np.asarray(packed.node_features, dtype=np.float64),
            "edge_index": np.asarray(packed.edge_index, dtype=np.int64),
        }
    )
    try:
        task = ForwardTask(
            chunk_id=0,
            bundle=bundle.spec,
            member_start=0,
            member_stop=3,
        )
        payload = pickle.dumps(task)
        # Far smaller than either the batch arrays or the weights: the pickle
        # carries names, shapes and integers only.
        assert len(payload) < 2048
        assert len(payload) < packed.node_features.nbytes
        restored = pickle.loads(payload)
        assert restored.member_stop == 3
        assert restored.bundle.shm_name == bundle.spec.shm_name
    finally:
        bundle.unlink()


def test_service_pools_ensemble_batches_from_min_graphs(fitted_ensemble):
    """The service's pooling gate: an ensemble batch of ``forward_min_graphs``
    designs rides the pool, one design fewer stays in-process, and a
    single-model service never starts the pool.  Every case answers the
    serial bytes."""
    from repro.runtime import RuntimeConfig
    from repro.serve import EstimateRequest, PowerEstimationService

    model, samples = fitted_ensemble
    runtime = RuntimeConfig(forward_workers=2)
    threshold = runtime.forward_min_graphs
    queries = samples[28 : 28 + threshold]
    requests = [EstimateRequest.from_sample(s) for s in queries]
    reference = model.predict_batch(queries, batch_size=threshold)
    reference_below = model.predict_batch(queries[:-1], batch_size=threshold)

    def powers(responses) -> bytes:
        return np.array([r.power for r in responses]).tobytes()

    with PowerEstimationService(
        model, batch_size=threshold, runtime=runtime
    ) as service:
        below = service.estimate_many(requests[:-1])
        assert powers(below) == reference_below.tobytes()
        assert service.metrics.snapshot()["pooled_predicted"] == 0
        assert service._forward_supervisor is None  # the pool never started
        service.cache.clear()
        at = service.estimate_many(requests)
        assert powers(at) == reference.tobytes()
        assert service.metrics.snapshot()["pooled_predicted"] == threshold

    single = PowerGear(
        PowerGearConfig(
            target="dynamic",
            gnn=GNNConfig(hidden_dim=8, num_layers=1),
            training=TrainingConfig(epochs=2, batch_size=16),
            ensemble=None,
        )
    ).fit(samples[:24])
    single_reference = single.predict_batch(queries, batch_size=threshold)
    with PowerEstimationService(
        single, batch_size=threshold, runtime=runtime
    ) as service:
        responses = service.estimate_many(requests)
        assert powers(responses) == single_reference.tobytes()
        assert service.metrics.snapshot()["pooled_predicted"] == 0
        assert service._forward_supervisor is None

    # The pool itself refuses what the gate keeps away from it.
    with pytest.raises(ValueError):
        ForwardPool(single, num_workers=2)
    with pytest.raises(ValueError):
        ForwardPool(model, num_workers=1)
    unfitted = PowerGear(PowerGearConfig(target="dynamic"))
    with pytest.raises(ValueError):
        ForwardPool(unfitted, num_workers=2)


def test_forward_pool_leaves_no_buffer_error_on_stderr(
    fitted_ensemble, capfd, monkeypatch
):
    """Regression: every task's shared-memory mapping closes cleanly.

    Each forward task attaches its chunk's bundle and must drop every view
    of it before closing the mapping; a view kept alive (e.g. by a reference
    cycle through a memoised batch) leaks the mapping and makes
    ``SharedMemory.__del__`` print ``BufferError: cannot close exported
    pointers exist`` from the worker.  Fork workers share the test's stderr,
    so ``capfd`` sees those lines — provided they inherit the default
    unraisable-exception hook rather than pytest's collecting one, which
    would swallow them in the children.
    """
    monkeypatch.setattr(sys, "unraisablehook", sys.__unraisablehook__)
    model, samples = fitted_ensemble
    queries = samples[28:]
    reference = model.predict_batch(queries, batch_size=5)
    pool = ForwardPool(model, num_workers=2, start_method="fork")
    try:
        for _ in range(3):  # three batches of three chunks each
            pooled = pool.predict_batch(queries, batch_size=5)
            assert pooled.tobytes() == reference.tobytes()
    finally:
        pool.close()
    assert pool.stats.shards == 3 * 3 * 2
    assert "BufferError" not in capfd.readouterr().err


def test_forward_pool_close_is_idempotent_and_final(fitted_ensemble):
    model, samples = fitted_ensemble
    pool = ForwardPool(model, num_workers=2)
    assert pool.predict_batch(samples[28:30]).shape == (2,)
    pool.close()
    pool.close()
    with pytest.raises(RuntimeError):
        pool.predict_batch(samples[28:30])


def test_service_degrades_serially_on_non_crash_pool_errors(fitted_ensemble):
    """A closed pool (RuntimeError from ForwardPool, RuntimeError from the
    shut-down executor) must degrade the request to the serial path, not
    fail it — predictions are identical either way.  Non-crash errors do
    NOT retire the pool or consume restart budget: pooling stays available
    for later batches (only `pooled_errors` counts the degradation)."""
    from repro.runtime import ForwardPool, RuntimeConfig
    from repro.serve import EstimateRequest, PowerEstimationService

    model, samples = fitted_ensemble
    queries = samples[28:32]
    requests = [EstimateRequest.from_sample(s) for s in queries]
    with PowerEstimationService(model, batch_size=4) as serial_service:
        reference = [r.power for r in serial_service.estimate_many(requests)]

    runtime = RuntimeConfig(forward_workers=2, forward_min_graphs=2)
    for error in (RuntimeError("pool closed"), ValueError("Pool not running")):
        with PowerEstimationService(model, batch_size=4, runtime=runtime) as service:
            attempts = {"count": 0}

            def broken_predict(self, *args, _error=error, _attempts=attempts, **kwargs):
                _attempts["count"] += 1
                raise _error

            with pytest.MonkeyPatch.context() as patcher:
                patcher.setattr(ForwardPool, "predict_batch", broken_predict)
                responses = service.estimate_many(requests)
                assert [r.power for r in responses] == reference
                snapshot = service.metrics.snapshot()
                assert snapshot["pooled_predicted"] == 0
                assert snapshot["pooled_errors"] == 1
                # No restart budget burnt, nothing retired: the pool is still
                # offered to the next batch (which degrades again, visibly).
                supervisor = service._forward_supervisor_handle(len(requests))
                assert supervisor is not None and not supervisor.retired
                assert supervisor.health()["restarts"] == 0
                service.cache.clear()
                again = service.estimate_many(requests)
                assert [r.power for r in again] == reference
                assert service.metrics.snapshot()["pooled_errors"] == 2
                assert attempts["count"] == 2  # pooling was re-attempted

            # With the fault gone, pooling works without any pool rebuild.
            service.cache.clear()
            recovered = service.estimate_many(requests)
            assert [r.power for r in recovered] == reference
            assert service.metrics.snapshot()["pooled_predicted"] == len(requests)
            assert service.metrics.snapshot()["pool_restarts"] == 0


def test_service_retires_pool_after_persistent_non_crash_failures(fitted_ensemble):
    """A pool that fails deterministically WITHOUT crashing (e.g. its
    construction-time validation raises on every batch) must not re-pay the
    doomed setup forever: after `pool_max_restarts` consecutive non-crash
    failures the service retires it (a pooled success resets the streak)."""
    from repro.runtime import ForwardPool, RuntimeConfig
    from repro.serve import EstimateRequest, PowerEstimationService

    model, samples = fitted_ensemble
    requests = [EstimateRequest.from_sample(s) for s in samples[28:32]]
    runtime = RuntimeConfig(
        forward_workers=2, forward_min_graphs=2, pool_max_restarts=1
    )
    attempts = {"count": 0}

    def always_broken(self, *args, **kwargs):
        attempts["count"] += 1
        raise RuntimeError("member models do not rebuild with identical shapes")

    with PowerEstimationService(model, batch_size=4, runtime=runtime) as service:
        with pytest.MonkeyPatch.context() as patcher:
            patcher.setattr(ForwardPool, "predict_batch", always_broken)
            for batch in range(4):
                service.cache.clear()
                service.estimate_many(requests)  # always answered, serially
        # Strikes: 2 failures (budget 1) retired the pool; batches 3 and 4
        # went straight serial without another doomed pool round-trip.
        assert attempts["count"] == 2
        supervisor = service._forward_supervisor_handle(len(requests))
        assert supervisor.retired
        assert "non-crash" in supervisor.health()["last_fault"]
        assert service.health()["status"] == "degraded"
        assert service.metrics.snapshot()["pooled_errors"] == 2
        assert service.metrics.snapshot()["pool_restarts"] == 0


def test_request_errors_do_not_strike_the_pool(fitted_ensemble):
    """A batch that fails identically on the serial retry was a bad request,
    not a broken pool: the error propagates and no strike is recorded, so a
    streak of bad requests can never retire a healthy pool."""
    from repro.flow.powergear import PowerGear
    from repro.runtime import ForwardPool, RuntimeConfig
    from repro.serve import EstimateRequest, PowerEstimationService

    model, samples = fitted_ensemble
    requests = [EstimateRequest.from_sample(s) for s in samples[28:32]]
    runtime = RuntimeConfig(
        forward_workers=2, forward_min_graphs=2, pool_max_restarts=0
    )

    def data_error(self, *args, **kwargs):
        raise ValueError("malformed graph payload")

    with PowerEstimationService(model, batch_size=4, runtime=runtime) as service:
        with pytest.MonkeyPatch.context() as patcher:
            # The same data makes BOTH paths raise: the request's fault.
            patcher.setattr(ForwardPool, "predict_batch", data_error)
            patcher.setattr(PowerGear, "predict_batch", data_error)
            for _ in range(3):
                with pytest.raises(ValueError, match="malformed"):
                    service.estimate_many(requests)
        supervisor = service._forward_supervisor_handle(len(requests))
        assert supervisor is not None and not supervisor.retired
        assert service._pool_strikes.get("forward", 0) == 0
        # With the bad data gone, pooling serves immediately.
        responses = service.estimate_many(requests)
        assert service.metrics.snapshot()["pooled_predicted"] == len(requests)
        assert len(responses) == len(requests)


def test_service_restarts_crashed_forward_pool_within_budget(fitted_ensemble):
    """A worker crash (WorkerCrashError) restarts the forward pool and the
    same batch retries pooled — bitwise-identical, with the fault visible."""
    from repro.runtime import ForwardPool, RuntimeConfig, WorkerCrashError
    from repro.serve import EstimateRequest, PowerEstimationService

    model, samples = fitted_ensemble
    queries = samples[28:32]
    requests = [EstimateRequest.from_sample(s) for s in queries]
    reference = model.predict_batch(queries, batch_size=4)

    runtime = RuntimeConfig(
        forward_workers=2, forward_min_graphs=2, pool_restart_backoff_s=0.01
    )
    original = ForwardPool.predict_batch
    crashes = {"left": 1}

    def flaky_predict(self, *args, **kwargs):
        if crashes["left"]:
            crashes["left"] -= 1
            raise WorkerCrashError("injected forward worker crash")
        return original(self, *args, **kwargs)

    with PowerEstimationService(model, batch_size=4, runtime=runtime) as service:
        with pytest.MonkeyPatch.context() as patcher:
            patcher.setattr(ForwardPool, "predict_batch", flaky_predict)
            responses = service.estimate_many(requests)
        assert [r.power for r in responses] == list(reference)
        snapshot = service.metrics.snapshot()
        assert snapshot["pooled_predicted"] == len(requests)  # retried pooled
        assert snapshot["pooled_errors"] == 1  # the crash, visible
        assert snapshot["pool_restarts"] == 1
        stats = service.runtime_stats()["forward_pool"]
        assert stats["supervisor"]["restarts"] == 1
        assert stats["supervisor"]["state"] == "ok"
        assert service.health()["status"] == "ok"


def test_service_recovers_sigkilled_forward_worker_bitwise(sigkill_ensemble):
    """Acceptance: a real SIGKILL of a member-sharding forward worker is a
    blip — the supervisor restarts the pool, the batch retries pooled, and
    the recovered predictions are bitwise-identical to serial."""
    model, samples = sigkill_ensemble
    queries = samples[28:]
    requests = [EstimateRequest.from_sample(s) for s in queries]
    reference = model.predict_batch(queries, batch_size=len(queries))

    def powers(responses) -> bytes:
        return np.array([r.power for r in responses]).tobytes()

    runtime = RuntimeConfig(forward_workers=2, pool_restart_backoff_s=0.01)
    with PowerEstimationService(
        model, batch_size=len(queries), runtime=runtime
    ) as service:
        first = service.estimate_many(requests)
        assert powers(first) == reference.tobytes()
        assert service.metrics.snapshot()["pooled_predicted"] == len(queries)

        supervisor = service._forward_supervisor
        assert supervisor is not None
        executor = supervisor._pools[supervisor._generation]._pool
        os.kill(next(iter(executor._processes)), signal.SIGKILL)
        # Deterministic: the executor's manager thread watches worker
        # sentinels; wait for it to observe the death so the next batch
        # reliably hits the broken pool instead of racing the detection.
        deadline = time.time() + 30
        while not executor._broken and time.time() < deadline:
            time.sleep(0.01)
        assert executor._broken

        service.cache.clear()
        second = service.estimate_many(requests)
        assert powers(second) == reference.tobytes()

        snapshot = service.metrics.snapshot()
        assert snapshot["pool_restarts"] == 1
        assert snapshot["pooled_errors"] == 1  # the kill, visible
        stats = service.runtime_stats()["forward_pool"]
        assert stats["member_forwards"] == 2 * len(model.ensemble.members)
        assert stats["shared_batch_bytes"] > 0
        assert stats["supervisor"]["restarts"] == 1
        assert stats["supervisor"]["state"] == "ok"
        assert stats["supervisor"]["retried_batches"] == 1
        assert service.health()["status"] == "ok"


def test_service_retires_forward_pool_after_restart_budget(fitted_ensemble):
    """Crashes past the budget retire the pool: serial forever, degraded health."""
    from repro.runtime import ForwardPool, RuntimeConfig, WorkerCrashError
    from repro.serve import EstimateRequest, PowerEstimationService

    model, samples = fitted_ensemble
    queries = samples[28:32]
    requests = [EstimateRequest.from_sample(s) for s in queries]
    with PowerEstimationService(model, batch_size=4) as serial_service:
        reference = [r.power for r in serial_service.estimate_many(requests)]

    runtime = RuntimeConfig(
        forward_workers=2,
        forward_min_graphs=2,
        pool_max_restarts=1,
        pool_restart_backoff_s=0.0,
    )

    def always_crash(self, *args, **kwargs):
        raise WorkerCrashError("persistent forward fault")

    with PowerEstimationService(model, batch_size=4, runtime=runtime) as service:
        with pytest.MonkeyPatch.context() as patcher:
            patcher.setattr(ForwardPool, "predict_batch", always_crash)
            responses = service.estimate_many(requests)
        # The request is answered on the identical serial path.
        assert [r.power for r in responses] == reference
        snapshot = service.metrics.snapshot()
        assert snapshot["pooled_predicted"] == 0
        assert snapshot["pooled_errors"] == 2  # one restart + the retiring fault
        assert snapshot["pool_restarts"] == 1
        supervisor = service._forward_supervisor_handle(len(requests))
        assert supervisor.retired
        assert service.health()["status"] == "degraded"
        assert service.health()["pools"]["forward"]["state"] == "retired"
        # Later batches go straight serial without pool round-trips.
        service.cache.clear()
        again = service.estimate_many(requests)
        assert [r.power for r in again] == reference
        assert service.metrics.snapshot()["pool_restarts"] == 1


def test_forward_pool_spawn_start_method(fitted_ensemble):
    """The shared segment also reaches spawn workers (no fork inheritance)."""
    model, samples = fitted_ensemble
    queries = samples[28:32]
    reference = model.predict_batch(queries)
    with ForwardPool(model, num_workers=2, start_method="spawn") as pool:
        assert pool.predict_batch(queries).tobytes() == reference.tobytes()


def test_pooled_forward_bitwise_through_service(ensemble_model):
    """The pooled path (shared-memory forward shards) matches serial bytes."""
    model, samples = ensemble_model
    queries = samples[24:]
    requests = [EstimateRequest.from_sample(s) for s in queries]

    with PowerEstimationService(
        model, batch_size=6, runtime=RuntimeConfig()
    ) as serial_service:
        reference = [r.power for r in serial_service.estimate_many(requests)]

    runtime = RuntimeConfig(forward_workers=2)
    with PowerEstimationService(model, batch_size=6, runtime=runtime) as service:
        pooled = [r.power for r in service.estimate_many(requests)]
        assert np.array(pooled).tobytes() == np.array(reference).tobytes()
        snapshot = service.metrics.snapshot()
        assert snapshot["pooled_predicted"] == len(requests)
        stats = service.runtime_stats()["forward_pool"]
        assert stats["designs"] == len(requests)
        assert stats["shards"] >= 2
