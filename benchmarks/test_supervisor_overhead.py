"""Supervision cost, measured: dispatch overhead and restart latency.

Two questions an operator asks before turning the supervisor on:

* **what does supervision cost per batch?** — the supervisor adds admission
  accounting and a generation lookup around every pool call.  Measured by driving the same no-op pool raw vs supervised:
  the layer must stay within noise of the raw call (its real work — numpy
  batches across processes — is milliseconds, the wrapper microseconds).
* **how long is a crash blip?** — wall-clock from a SIGKILLed worker
  mid-batch to the retried batch's result on the restarted pool (process
  respawn + backoff + retry).  This is the "a crashed worker is a blip in
  /metrics, not a permanent downgrade" number.

Both tables land in ``latest_results.txt`` and are gated through
``baseline.json`` (``runtime.supervisor.*``) — wall-clock, so skipped on CI
runners like every other timing metric (shared policy in ``gating.py``).
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from conftest import print_table
from gating import gate_reason, wall_clock_enforced
from repro.runtime import SupervisedPool, WorkerCrashError

DISPATCH_CALLS = 20_000


class NoopPool:
    """A pool whose batch is free: isolates the supervisor's own dispatch."""

    def __init__(self, num_workers: int) -> None:
        self.num_workers = num_workers

    def featurise(self, payload):
        return payload

    def close(self) -> None:
        pass


def _echo_or_die(task: tuple[int, str]) -> int:
    value, sentinel = task
    if value == 0 and sentinel and not os.path.exists(sentinel):
        with open(sentinel, "w", encoding="utf-8"):
            pass
        os.kill(os.getpid(), signal.SIGKILL)
    return value


class EchoPool:
    """Minimal real-process pool for the restart-latency measurement."""

    def __init__(self, num_workers: int) -> None:
        self.num_workers = num_workers
        self._executor = ProcessPoolExecutor(
            max_workers=num_workers, mp_context=multiprocessing.get_context("fork")
        )

    def map(self, tasks):
        try:
            return list(self._executor.map(_echo_or_die, tasks))
        except BrokenProcessPool as fault:
            raise WorkerCrashError("worker died mid-batch") from fault

    def warm(self) -> None:
        """Spawn the workers up front so the crash batch times the restart,
        not the initial cold start."""
        list(self._executor.map(_echo_or_die, [(1, ""), (2, "")]))

    def close(self) -> None:
        self._executor.shutdown(wait=True)


@pytest.mark.benchmark
@pytest.mark.slow
def test_supervisor_overhead_and_restart_latency(benchmark, tmp_path):
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("restart-latency measurement needs the fork start method")

    def run():
        # -- dispatch overhead: raw pool calls vs supervised pool calls ------
        raw_pool = NoopPool(2)
        raw_start = time.perf_counter()
        for index in range(DISPATCH_CALLS):
            raw_pool.featurise(index)
        raw_seconds = time.perf_counter() - raw_start

        supervisor = SupervisedPool(NoopPool, workers=2)
        supervised_start = time.perf_counter()
        for index in range(DISPATCH_CALLS):
            supervisor.run(lambda pool, _i=index: pool.featurise(_i), cost=1)
        supervised_seconds = time.perf_counter() - supervised_start
        supervisor.close()

        # -- restart latency: SIGKILL mid-batch -> recovered result ----------
        sentinel = str(tmp_path / "killed")
        tasks = [(value, sentinel) for value in range(8)]
        restart_supervisor = SupervisedPool(
            lambda workers: EchoPool(workers),
            workers=2,
            max_restarts=2,
            backoff_base_s=0.05,
        )
        restart_supervisor.run(lambda pool: pool.warm(), cost=1)
        crash_start = time.perf_counter()
        recovered = restart_supervisor.run(
            lambda pool: pool.map(tasks), cost=len(tasks)
        )
        restart_seconds = time.perf_counter() - crash_start
        restarts = restart_supervisor.health()["restarts"]
        restart_supervisor.close()

        return {
            "raw_seconds": raw_seconds,
            "supervised_seconds": supervised_seconds,
            "recovered": recovered,
            "restart_seconds": restart_seconds,
            "restarts": restarts,
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    raw_seconds = results["raw_seconds"]
    supervised_seconds = results["supervised_seconds"]
    print_table(
        "Supervised pool dispatch overhead "
        f"({DISPATCH_CALLS} no-op batches; {gate_reason()})",
        ["Path", "Calls", "Seconds", "Calls/s", "us/call"],
        [
            [
                "raw",
                str(DISPATCH_CALLS),
                f"{raw_seconds:.3f}",
                f"{DISPATCH_CALLS / raw_seconds:.0f}",
                f"{raw_seconds / DISPATCH_CALLS * 1e6:.2f}",
            ],
            [
                "supervised",
                str(DISPATCH_CALLS),
                f"{supervised_seconds:.3f}",
                f"{DISPATCH_CALLS / supervised_seconds:.0f}",
                f"{supervised_seconds / DISPATCH_CALLS * 1e6:.2f}",
            ],
        ],
    )
    print_table(
        "Supervisor restart latency (2 fork workers, 0.05 s backoff base)",
        ["Event", "Restarts", "Seconds"],
        [
            [
                "sigkill->recovered",
                str(results["restarts"]),
                f"{results['restart_seconds']:.3f}",
            ]
        ],
    )

    # Correctness invariants: always enforced.
    assert results["recovered"] == list(range(8))
    assert results["restarts"] == 1

    if wall_clock_enforced():
        # Supervision must never cost a meaningful fraction of a real batch:
        # per-call overhead stays under 100 microseconds even on slow boxes.
        per_call = supervised_seconds / DISPATCH_CALLS - raw_seconds / DISPATCH_CALLS
        assert per_call < 100e-6, (
            f"supervised dispatch adds {per_call * 1e6:.1f} us per batch"
        )
        # A crash blip must resolve in seconds, not minutes.
        assert results["restart_seconds"] < 30.0
