"""Self-healing pools: supervised restart-on-crash and health.

Three layers of coverage:

* **unit** — :class:`SupervisedPool` over fake in-process pools: restart
  budget and exponential backoff, retirement, generation-deduplicated
  concurrent crash recovery, the fixed-size pooling threshold, and the
  contract that a restart never swaps the pool under an in-flight batch;
* **real processes** — a minimal executor-backed pool whose worker SIGKILLs
  itself mid-batch via a poisoned task (fork and spawn): the supervisor must
  restart it within budget and the retried batch must equal the serial
  result exactly;
* **service** — a SIGKILLed featurisation worker under
  ``PowerEstimationService``: the next ``estimate_many`` is answered
  bitwise-identically to the serial path, with the fault visible in
  ``runtime_stats()`` / ``health()``, the pool restarted, and only the live
  workers' heartbeats exported.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.flow.dataset_gen import DatasetConfig, DatasetGenerator
from repro.flow.powergear import PowerGear, PowerGearConfig
from repro.gnn.config import GNNConfig
from repro.gnn.trainer import TrainingConfig
from repro.kernels.polybench import polybench_kernel
from repro.runtime import (
    PoolClosedError,
    PoolRetiredError,
    RuntimeConfig,
    SupervisedPool,
    WorkerCrashError,
)
from repro.serve import EstimateRequest, PowerEstimationService

SUPERVISOR_CONFIG = DatasetConfig(kernel_size=6, designs_per_kernel=8)


# -------------------------------------------------------------- fake harness


class FakePool:
    """An in-process stand-in exposing only what the supervisor requires."""

    def __init__(self, num_workers: int) -> None:
        self.num_workers = num_workers
        self.closed = False

    def close(self) -> None:
        self.closed = True


class Harness:
    def __init__(self) -> None:
        self.created: list[FakePool] = []
        self.sleeps: list[float] = []
        self.faults: list[BaseException] = []
        self.restarts = 0

    def factory(self, num_workers: int) -> FakePool:
        pool = FakePool(num_workers)
        self.created.append(pool)
        return pool

    def supervisor(self, **kwargs) -> SupervisedPool:
        kwargs.setdefault("workers", 2)
        kwargs.setdefault("on_fault", self.faults.append)
        kwargs.setdefault("on_restart", self._count_restart)
        kwargs.setdefault("sleep", self.sleeps.append)
        return SupervisedPool(self.factory, **kwargs)

    def _count_restart(self) -> None:
        self.restarts += 1


def test_supervisor_validates_configuration():
    harness = Harness()
    with pytest.raises(ValueError):
        harness.supervisor(workers=1)
    with pytest.raises(ValueError):
        harness.supervisor(max_restarts=-1)


def test_run_passes_through_and_counts_batches():
    harness = Harness()
    with harness.supervisor() as supervisor:
        assert supervisor.run(lambda pool: pool.num_workers, cost=4) == 2
        assert supervisor.run(lambda pool: "ok") == "ok"
        health = supervisor.health()
    assert health["state"] == "ok"
    assert health["batches"] == 2
    assert health["restarts"] == 0
    assert health["queue_depth"] == 0
    assert len(harness.created) == 1  # one generation, reused


def test_restart_on_crash_with_exponential_backoff():
    harness = Harness()
    crashes = {"left": 2}

    def flaky(pool):
        if crashes["left"]:
            crashes["left"] -= 1
            raise WorkerCrashError("injected")
        return pool.num_workers

    with harness.supervisor(max_restarts=3, backoff_base_s=0.1) as supervisor:
        assert supervisor.run(flaky, cost=4) == 2
        health = supervisor.health()
    assert health["state"] == "ok"  # recovered and proved itself
    assert health["restarts"] == 2
    assert health["retried_batches"] == 2
    assert health["last_fault"] == "WorkerCrashError: injected"
    assert harness.sleeps == [0.1, 0.2]  # exponential
    assert harness.restarts == 2
    assert len(harness.faults) == 2
    assert len(harness.created) == 3  # each restart built a fresh pool
    assert all(pool.closed for pool in harness.created[:2])


def test_backoff_is_capped():
    harness = Harness()
    crashes = {"left": 6}

    def flaky(pool):
        if crashes["left"]:
            crashes["left"] -= 1
            raise WorkerCrashError("injected")
        return "ok"

    with harness.supervisor(
        max_restarts=10, backoff_base_s=0.1, backoff_max_s=0.25
    ) as supervisor:
        assert supervisor.run(flaky) == "ok"
    assert harness.sleeps == [0.1, 0.2, 0.25, 0.25, 0.25, 0.25]


def test_retires_after_budget_and_stays_retired():
    harness = Harness()

    def always_crash(pool):
        raise WorkerCrashError("dead on arrival")

    supervisor = harness.supervisor(max_restarts=2, backoff_base_s=0.0)
    with pytest.raises(PoolRetiredError):
        supervisor.run(always_crash, cost=4)
    assert supervisor.retired
    assert supervisor.health()["state"] == "retired"
    assert harness.restarts == 2
    assert len(harness.faults) == 3  # two restarts + the retiring fault
    created = len(harness.created)
    # Later batches fast-fail at admission: no doomed round-trips, no new pools.
    with pytest.raises(PoolRetiredError):
        supervisor.run(lambda pool: "never runs")
    assert len(harness.created) == created
    assert all(pool.closed for pool in harness.created)
    supervisor.close()


def test_task_errors_propagate_without_consuming_budget():
    harness = Harness()
    with harness.supervisor() as supervisor:
        with pytest.raises(ValueError, match="bad kernel"):
            supervisor.run(lambda pool: (_ for _ in ()).throw(ValueError("bad kernel")))
        health = supervisor.health()
    assert health["restarts"] == 0
    assert health["state"] == "ok"
    assert not harness.faults
    assert health["queue_depth"] == 0  # the failed batch released its slot


def test_closed_supervisor_refuses_work():
    harness = Harness()
    supervisor = harness.supervisor()
    supervisor.run(lambda pool: "warm")
    supervisor.close()
    supervisor.close()  # idempotent
    assert supervisor.closed
    assert all(pool.closed for pool in harness.created)
    with pytest.raises(PoolClosedError):
        supervisor.run(lambda pool: "refused")


def test_concurrent_crashes_consume_one_restart():
    """Two batches crashing off the same broken pool recover once."""
    harness = Harness()
    barrier = threading.Barrier(2)
    supervisor = harness.supervisor(max_restarts=1, backoff_base_s=0.0)

    def flaky(pool):
        if pool is harness.created[0]:
            barrier.wait(timeout=30)  # both batches acquire the doomed pool
            raise WorkerCrashError("shared crash")
        return "recovered"

    results = [None, None]

    def call(slot: int) -> None:
        results[slot] = supervisor.run(flaky, cost=1)

    threads = [threading.Thread(target=call, args=(slot,)) for slot in (0, 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert results == ["recovered", "recovered"]
    health = supervisor.health()
    assert health["restarts"] == 1  # one budget unit for one crash event
    assert health["state"] == "ok"
    assert len(harness.created) == 2
    supervisor.close()


def test_restart_never_swaps_a_batch_mid_flight():
    """A restart starts a new generation for NEW batches, while a batch
    already in flight finishes on the generation it acquired and, as the last
    one out, drain-closes it."""
    harness = Harness()
    supervisor = harness.supervisor(backoff_base_s=0.0)
    release = threading.Event()
    acquired = threading.Event()
    results: list = [None]

    def slow(pool):
        acquired.set()
        assert release.wait(timeout=30)
        return pool

    def crash_on_first_generation(pool):
        if pool is harness.created[0]:
            raise WorkerCrashError("injected")
        return pool

    def hold() -> None:
        results[0] = supervisor.run(slow)

    holder = threading.Thread(target=hold)
    holder.start()
    assert acquired.wait(timeout=30)
    # Another batch crashes off generation 0 and retries on generation 1
    # while the slow batch still holds generation 0.
    assert supervisor.run(crash_on_first_generation) is harness.created[1]
    health = supervisor.health()
    assert health["restarts"] == 1
    assert health["in_flight_batches"] == 1
    assert not harness.created[0].closed  # not yanked from under the batch
    release.set()
    holder.join(timeout=30)
    assert results[0] is harness.created[0]  # finished on generation 0...
    assert harness.created[0].closed  # ...and drain-closed it on the way out
    assert not harness.created[1].closed
    supervisor.close()


def test_should_parallelise_uses_the_fixed_size():
    """Batches below ``workers * min_designs_per_worker`` stay serial."""
    harness = Harness()
    supervisor = harness.supervisor(workers=2, min_designs_per_worker=3)
    assert not supervisor.should_parallelise(5)
    assert supervisor.should_parallelise(6)
    supervisor.close()


def test_external_retire_fast_fails_and_reports():
    harness = Harness()
    supervisor = harness.supervisor()
    supervisor.run(lambda pool: "warm")
    supervisor.retire("deterministic construction failure")
    assert supervisor.retired
    assert all(pool.closed for pool in harness.created)
    health = supervisor.health()
    assert health["state"] == "retired"
    assert health["last_fault"] == "deterministic construction failure"
    with pytest.raises(PoolRetiredError):
        supervisor.run(lambda pool: "never runs")
    supervisor.retire("again")  # idempotent
    supervisor.close()


# ------------------------------------------------- real processes, poisoned


def _square_or_die(task: tuple[int, str]) -> int:
    """Worker task: SIGKILL the worker once, marked by a sentinel file.

    The sentinel is created *before* the kill, so the retried batch runs
    clean — a transient fault, exactly what the restart budget is for.
    """
    value, sentinel = task
    if value == 3 and sentinel and not os.path.exists(sentinel):
        with open(sentinel, "w", encoding="utf-8"):
            pass
        os.kill(os.getpid(), signal.SIGKILL)
    return value * value


class SquarePool:
    """Minimal real-process pool speaking the supervisor's protocol."""

    def __init__(self, num_workers: int, start_method: str) -> None:
        self.num_workers = num_workers
        self._executor = ProcessPoolExecutor(
            max_workers=num_workers,
            mp_context=multiprocessing.get_context(start_method),
        )

    def map(self, tasks: list[tuple[int, str]]) -> list[int]:
        try:
            return list(self._executor.map(_square_or_die, tasks))
        except BrokenProcessPool as fault:
            raise WorkerCrashError("worker died mid-batch") from fault

    def close(self) -> None:
        self._executor.shutdown(wait=True)


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_sigkilled_worker_mid_batch_is_restarted(start_method, tmp_path):
    """Acceptance: a SIGKILL mid-batch costs one restart, not the batch."""
    if start_method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"{start_method} unavailable on this platform")
    sentinel = str(tmp_path / f"killed-{start_method}")
    tasks = [(value, sentinel) for value in range(8)]
    supervisor = SupervisedPool(
        lambda workers: SquarePool(workers, start_method),
        workers=2,
        max_restarts=2,
        backoff_base_s=0.01,
    )
    try:
        results = supervisor.run(lambda pool: pool.map(tasks), cost=len(tasks))
        # Bitwise-identical to the serial path (trivially, but end to end
        # through a real crash + restart + retry).
        assert results == [value * value for value in range(8)]
        assert os.path.exists(sentinel)  # the poison really fired
        health = supervisor.health()
        assert health["restarts"] == 1
        assert health["state"] == "ok"
        assert "WorkerCrashError" in health["last_fault"]
        # The restarted pool keeps serving.
        again = supervisor.run(lambda pool: pool.map(tasks), cost=len(tasks))
        assert again == results
        assert supervisor.health()["restarts"] == 1
    finally:
        supervisor.close()


def test_sigkill_every_batch_exhausts_budget_and_retires(tmp_path):
    """A persistent fault (poison that re-arms) burns the budget then retires."""
    tasks = [(value, "") for value in range(8)]

    def poisoned(pool):
        raise WorkerCrashError("persistent fault")

    supervisor = SupervisedPool(
        lambda workers: SquarePool(workers, "fork"),
        workers=2,
        max_restarts=1,
        backoff_base_s=0.0,
    )
    try:
        with pytest.raises(PoolRetiredError):
            supervisor.run(poisoned, cost=len(tasks))
        assert supervisor.retired
        # Healthy pools would still work, but the supervisor is done.
        with pytest.raises(PoolRetiredError):
            supervisor.run(lambda pool: pool.map(tasks), cost=len(tasks))
    finally:
        supervisor.close()


# ------------------------------------------------------------ service level


@pytest.fixture(scope="module")
def supervised_model():
    samples = DatasetGenerator(SUPERVISOR_CONFIG).generate(["atax"]).samples
    return PowerGear(
        PowerGearConfig(
            target="dynamic",
            gnn=GNNConfig(hidden_dim=10, num_layers=2),
            training=TrainingConfig(epochs=4, batch_size=16),
            ensemble=None,
        )
    ).fit(samples)


@pytest.fixture(scope="module")
def atax_requests():
    generator = DatasetGenerator(SUPERVISOR_CONFIG)
    kernel = polybench_kernel("atax", SUPERVISOR_CONFIG.kernel_size)
    return [
        EstimateRequest(kernel="atax", directives=directives)
        for directives in generator.design_space_for(kernel)
    ]


def _current_worker_pids(supervisor: SupervisedPool) -> list[int]:
    """Reach through supervisor -> WorkerPool -> executor for live worker pids."""
    pool = supervisor._pools[supervisor._generation]
    executor = pool._pool
    return list(executor._processes)


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_service_restarts_sigkilled_featurisation_worker(
    start_method, supervised_model, atax_requests
):
    """Acceptance: a SIGKILLed worker under ``estimate_many`` is a blip in
    metrics, and the recovered batch is bitwise-identical to serial."""
    if start_method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"{start_method} unavailable on this platform")
    with PowerEstimationService(
        supervised_model, generator=DatasetGenerator(SUPERVISOR_CONFIG)
    ) as serial_service:
        reference = serial_service.estimate_many(atax_requests)

    runtime = RuntimeConfig(
        num_workers=2,
        min_designs_per_worker=1,
        start_method=start_method,
        pool_restart_backoff_s=0.01,
    )
    with PowerEstimationService(
        supervised_model,
        generator=DatasetGenerator(SUPERVISOR_CONFIG),
        runtime=runtime,
    ) as service:
        first = service.estimate_many(atax_requests)
        assert [r.power for r in first] == [r.power for r in reference]

        supervisor = service._feat_supervisor
        assert supervisor is not None
        service.metrics_snapshot()  # exports the first generation's heartbeats
        killed = {str(pid) for pid in _current_worker_pids(supervisor)}
        executor = supervisor._pools[supervisor._generation]._pool
        os.kill(_current_worker_pids(supervisor)[0], signal.SIGKILL)
        # Wait until the executor's manager thread has observed the death
        # (deterministic: it watches worker sentinels), so the next batch
        # reliably sees the broken pool rather than racing the detection.
        deadline = time.time() + 30
        while not executor._broken and time.time() < deadline:
            time.sleep(0.01)
        assert executor._broken

        # Force the next batch back through featurisation: the memory tier
        # would otherwise answer from cache and never touch the dead pool.
        service.cache.clear()
        second = service.estimate_many(atax_requests)
        assert [r.power for r in second] == [r.power for r in reference]

        snapshot = service.metrics.snapshot()
        stats = service.runtime_stats()["pool"]
        health = service.health()
        assert snapshot["pool_restarts"] == 1
        assert snapshot["pooled_errors"] == 1  # the fault, visible
        assert snapshot["pooled_featurised"] == 2 * len(atax_requests)
        assert stats["supervisor"]["restarts"] == 1
        assert stats["supervisor"]["state"] == "ok"  # recovered
        assert "WorkerCrashError" in stats["supervisor"]["last_fault"]
        # Lifetime pool counters survive the rebuild and count successful
        # batches only (the crashed attempt is not throughput; the retry is
        # visible in the supervisor's retried_batches instead).
        assert stats["designs"] == 2 * len(atax_requests)
        assert stats["supervisor"]["retried_batches"] == 1
        assert health["status"] == "ok"
        assert health["pools"]["featurisation"]["restarts"] == 1
        # The heartbeat gauge exports exactly the live generation's workers
        # (those that ran a shard of the retried batch; one worker may have
        # run both): the killed generation's series are gone, not left
        # looking fresh.
        service.metrics_snapshot()
        exported = {
            key.split("|")[1] for key in service.obs.worker_heartbeat_age.snapshot()
        }
        beating = set(service.health()["pools"]["featurisation"]["heartbeats"])
        assert exported == beating
        assert exported <= {str(pid) for pid in _current_worker_pids(supervisor)}
        assert exported and exported.isdisjoint(killed)


def test_runtime_config_validates_supervision_knobs():
    with pytest.raises(ValueError):
        RuntimeConfig(pool_max_restarts=-1)
    with pytest.raises(ValueError):
        RuntimeConfig(pool_restart_backoff_s=-0.1)
