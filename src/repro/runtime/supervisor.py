"""Self-healing worker pools: supervised lifecycle over the process pools.

The pools in :mod:`repro.runtime.pool` are deliberately dumb about faults: a
worker SIGKILLed by the OOM killer surfaces as a :class:`WorkerCrashError`
and the pool object is permanently broken.  :class:`SupervisedPool` gives
each pool a supervised lifecycle at a fixed worker count:

* **restart-on-crash** — a crashed pool is torn down and rebuilt through its
  factory, with capped exponential backoff between restarts and a hard
  budget (``max_restarts``); the batch that observed the crash retries on
  the fresh pool, so a transient fault costs one restart, not the request.
  When the budget is exhausted the supervisor *retires* (degrade-to-serial,
  but only after the budget, never on the first strike).
* **health snapshots** — :meth:`health` reports state / size / queue depth /
  restart counters / last fault / worker heartbeats; the service threads it
  through ``runtime_stats()`` and the HTTP ``/metrics`` + ``/healthz``
  endpoints (a pool in backoff turns health *degraded*, never dead).

Determinism contract: the supervisor never touches a batch's decomposition.
A batch runs wholly on the one pool generation it acquired — a restart
starts a *new* generation for subsequent batches while in-flight batches
finish (and drain-close) the old one — every retry re-runs the whole batch
on one pool, and both pools' merges are bitwise-identical to serial.  So
supervised results equal serial results under every crash interleaving.

The supervisor is generic over a ``factory(num_workers) -> pool`` callable;
the only protocol it needs from the pool object is ``close()``.  Batches are
submitted as ``run(batch_fn, cost=...)`` where ``batch_fn(pool)`` performs
the pool call — so one implementation supervises both the featurisation
:class:`~repro.runtime.pool.WorkerPool` and the
:class:`~repro.runtime.pool.ForwardPool`.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from repro.runtime.pool import WorkerCrashError

__all__ = [
    "PoolClosedError",
    "PoolRetiredError",
    "SupervisedPool",
    "WorkerCrashError",
]


class PoolRetiredError(RuntimeError):
    """The restart budget is exhausted; the pool is permanently serial."""


class PoolClosedError(RuntimeError):
    """Submission through a supervisor whose :meth:`SupervisedPool.close` ran."""


class SupervisedPool:
    """Crash-supervised lifecycle around one fixed-size pool.

    Thread-safe: concurrent batches share one pool generation; a crash is
    recovered exactly once per generation (concurrent observers of the same
    crash retry on the new generation without consuming extra budget), and
    the backoff sleep serialises recoveries without blocking healthy traffic
    or health reads.
    """

    def __init__(
        self,
        factory: Callable[[int], object],
        *,
        workers: int,
        max_restarts: int = 3,
        backoff_base_s: float = 0.05,
        backoff_max_s: float = 2.0,
        min_designs_per_worker: int = 1,
        name: str = "pool",
        on_fault: Callable[[BaseException], None] | None = None,
        on_restart: Callable[[], None] | None = None,
        observer: object | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if workers < 2:
            raise ValueError("a supervised pool needs at least 2 workers")
        if max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        if backoff_base_s < 0 or backoff_max_s < 0:
            raise ValueError("backoff times must be >= 0")
        if min_designs_per_worker < 1:
            raise ValueError("min_designs_per_worker must be >= 1")
        self.factory = factory
        self.workers = workers
        self.max_restarts = max_restarts
        self.backoff_base_s = backoff_base_s
        self.backoff_max_s = backoff_max_s
        self.min_designs_per_worker = min_designs_per_worker
        self.name = name
        self._on_fault = on_fault
        self._on_restart = on_restart
        # Duck-typed observability sink (repro.obs.Observability): anything
        # with pool_event(kind, pool=..., **fields).  Every lifecycle
        # transition reports through it — crash, restart, retire — feeding
        # the event timeline, the pool-event counters and the structured log
        # in one call.  Always best-effort: a broken observer must never
        # break recovery.
        self._observer = observer
        self._sleep = sleep
        # _state_lock guards every counter below and is never held across a
        # pool close or a backoff sleep; _restart_lock serialises recoveries
        # (and is the only lock held while sleeping).
        self._state_lock = threading.Lock()
        self._restart_lock = threading.Lock()
        self._state = "ok"  # ok | backoff | retired | closed
        self._generation = 0
        self._pools: dict[int, object] = {}
        self._in_flight: dict[int, int] = {}
        self._queue_depth = 0
        self._restarts = 0
        self._batches = 0
        self._retried_batches = 0
        self._last_fault: str | None = None

    # ------------------------------------------------------------------ public

    @property
    def retired(self) -> bool:
        with self._state_lock:
            return self._state == "retired"

    @property
    def closed(self) -> bool:
        with self._state_lock:
            return self._state == "closed"

    def should_parallelise(self, num_designs: int) -> bool:
        """Whether a batch is big enough to amortise the IPC of sharding."""
        return num_designs >= self.workers * self.min_designs_per_worker

    def run(self, batch_fn: Callable[[object], object], *, cost: int = 1):
        """Run one batch through the supervised pool; restart on crashes.

        ``batch_fn(pool)`` must perform one complete pool batch (a
        ``featurise`` or ``predict_batch`` call); ``cost`` is the batch's
        design count, the unit of the reported queue depth.

        Raises :class:`PoolRetiredError` once the restart budget is
        exhausted and :class:`PoolClosedError` after :meth:`close`; every
        other exception from ``batch_fn`` propagates unchanged (task-level
        errors are the caller's problem and never consume restart budget).
        """
        if cost < 0:
            raise ValueError("cost must be >= 0")
        with self._state_lock:
            self._check_open_locked()
            self._queue_depth += cost
        try:
            while True:
                generation, pool = self._acquire()
                try:
                    result = batch_fn(pool)
                except WorkerCrashError as fault:
                    self._finish(generation)
                    self._recover(generation, fault)
                    continue
                except BaseException:
                    self._finish(generation)
                    raise
                self._finish(generation)
                with self._state_lock:
                    self._batches += 1
                    if self._state == "backoff":
                        # The restarted pool proved itself: healthy again.
                        self._state = "ok"
                return result
        finally:
            with self._state_lock:
                self._queue_depth -= cost

    def health(self) -> dict:
        """Point-in-time health snapshot (JSON-safe, lock-consistent).

        Includes per-worker heartbeats when the current pool generation keeps
        a heartbeat book (both process pools do): ``pid -> {last_seen,
        age_s}``, stamped passively by traced shard results.
        """
        with self._state_lock:
            pool = self._pools.get(self._generation)
            snapshot = {
                "name": self.name,
                "state": self._state,
                "size": self.workers,
                "queue_depth": self._queue_depth,
                "in_flight_batches": sum(self._in_flight.values()),
                "restarts": self._restarts,
                "max_restarts": self.max_restarts,
                "last_fault": self._last_fault,
                "batches": self._batches,
                "retried_batches": self._retried_batches,
            }
        heartbeats = getattr(pool, "heartbeats", None)
        if callable(heartbeats):
            now = time.time()
            snapshot["heartbeats"] = {
                str(pid): {"last_seen": seen, "age_s": max(now - seen, 0.0)}
                for pid, seen in sorted(heartbeats().items())
            }
        return snapshot

    def retire(self, reason: str) -> None:
        """Retire the pool from outside the crash path.  Idempotent.

        For persistent *non-crash* failures the caller observes (e.g. a pool
        whose construction-time validation raises deterministically on every
        batch): further :meth:`run` calls fast-fail with
        :class:`PoolRetiredError` instead of re-paying the doomed setup, and
        health reports ``retired`` with ``reason`` as the last fault.
        """
        stale: list[object] = []
        with self._state_lock:
            if self._state in ("closed", "retired"):
                return
            self._state = "retired"
            self._last_fault = reason
            for generation in list(self._pools):
                if not self._in_flight.get(generation):
                    stale.append(self._pools.pop(generation))
            # Stragglers still in flight drain-close theirs via _finish.
            self._generation += 1
            restarts = self._restarts
        for pool in stale:
            self._close_quietly(pool)
        self._emit("retire", reason=reason, restarts=restarts)

    def close(self) -> None:
        """Stop supervising and close every live pool generation.  Idempotent.

        In-flight batches on a closed pool raise the pool's own closed-pool
        error (a plain ``RuntimeError``), which the service already treats as
        a shutdown race and answers on the serial path.
        """
        with self._state_lock:
            if self._state == "closed":
                return
            self._state = "closed"
            pools = list(self._pools.values())
            self._pools.clear()
            self._in_flight.clear()
        for pool in pools:
            self._close_quietly(pool)

    def __enter__(self) -> "SupervisedPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # --------------------------------------------------------------- internals

    def _check_open_locked(self) -> None:
        if self._state == "closed":
            raise PoolClosedError(f"{self.name} supervisor is closed")
        if self._state == "retired":
            raise PoolRetiredError(
                f"{self.name} pool is retired after {self._restarts} restarts"
            )

    def _acquire(self) -> tuple[int, object]:
        """Hand out the current pool generation, building it on first use.

        A restart starts a new generation for *subsequent* batches; batches
        already in flight finish on the generation they acquired (the last
        one out drain-closes it in :meth:`_finish`), so every batch's shards
        run on exactly one pool.
        """
        with self._state_lock:
            self._check_open_locked()
            generation = self._generation
            pool = self._pools.get(generation)
            if pool is None:
                # Build under the lock: pool constructors are cheap by
                # contract (worker processes spawn lazily on first use), and
                # racing builders would leak a pool's worth of processes.
                pool = self.factory(self.workers)
                self._pools[generation] = pool
            self._in_flight[generation] = self._in_flight.get(generation, 0) + 1
        return generation, pool

    def _finish(self, generation: int) -> None:
        """Release a batch's hold on its generation; drain stale pools."""
        stale = None
        with self._state_lock:
            remaining = self._in_flight.get(generation, 1) - 1
            if remaining <= 0:
                self._in_flight.pop(generation, None)
                if generation != self._generation:
                    # Last batch off a replaced generation closes it.
                    stale = self._pools.pop(generation, None)
            else:
                self._in_flight[generation] = remaining
        if stale is not None:
            self._close_quietly(stale)

    def _recover(self, generation: int, fault: WorkerCrashError) -> None:
        """Handle one observed crash: restart within budget or retire.

        Exactly one observer per generation consumes budget; concurrent
        batches that crashed off the same broken pool serialise behind the
        restart lock (so they also wait out the backoff) and then retry on
        the new generation for free.
        """
        with self._restart_lock:
            stale = None
            with self._state_lock:
                if self._state == "closed":
                    raise PoolClosedError(f"{self.name} supervisor is closed") from fault
                if generation != self._generation:
                    return  # Another observer already recovered this crash.
                self._last_fault = f"{type(fault).__name__}: {fault}"
                if self._restarts >= self.max_restarts:
                    self._state = "retired"
                    # Bump the generation so concurrent batches still draining
                    # off the broken pool close it on their way out (_finish);
                    # _acquire can never hand the dead generation out again.
                    if not self._in_flight.get(generation):
                        stale = self._pools.pop(generation, None)
                    self._generation += 1
                    retire = True
                else:
                    retire = False
                    self._restarts += 1
                    self._retried_batches += 1
                    self._state = "backoff"
                    if not self._in_flight.get(generation):
                        stale = self._pools.pop(generation, None)
                    self._generation += 1
                    delay = min(
                        self.backoff_base_s * (2 ** (self._restarts - 1)),
                        self.backoff_max_s,
                    )
            if stale is not None:
                self._close_quietly(stale)
            self._emit("crash", fault=str(fault), generation=generation)
            if self._on_fault is not None:
                try:
                    self._on_fault(fault)
                except Exception:
                    pass
            if retire:
                self._emit("retire", reason=self._last_fault, restarts=self._restarts)
                raise PoolRetiredError(
                    f"{self.name} pool retired after {self._restarts} restarts "
                    f"(last fault: {self._last_fault})"
                ) from fault
            self._emit("restart", restarts=self._restarts, backoff_s=delay)
            if self._on_restart is not None:
                try:
                    self._on_restart()
                except Exception:
                    pass
            if delay > 0:
                self._sleep(delay)

    def _emit(self, kind: str, **fields) -> None:
        """Report one lifecycle event through the observer, best-effort."""
        if self._observer is None:
            return
        try:
            self._observer.pool_event(kind, pool=self.name, **fields)
        except Exception:
            pass

    @staticmethod
    def _close_quietly(pool) -> None:
        try:
            pool.close()
        except Exception:
            pass
