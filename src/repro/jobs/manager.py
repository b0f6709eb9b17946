"""The job manager: bounded table, fair FIFO scheduling, resumable runs.

:class:`JobManager` turns the service's blocking ``explore`` into the
submit/poll/stream/cancel lifecycle:

* **Admission** — the job table is bounded (finished jobs are evicted oldest
  first to make room; a table full of *live* jobs is typed backpressure) and
  each client holds at most ``max_per_client`` active jobs
  (:class:`JobQuotaError` → the 429 quota envelope).
* **Fair FIFO scheduling** — one FIFO queue per client, drained round-robin
  across clients by a small pool of runner threads, so one client queueing
  fifty explorations cannot starve another's first.
* **Incremental runs** — each job drives an
  :class:`~repro.serve.service.ExplorationSession` one
  :meth:`~repro.dse.explorer.ParetoExplorer.step` at a time, publishing a
  seq-numbered update per iteration (the history entry plus the live
  frontier) and checkpointing the full explorer state through the
  :class:`~repro.jobs.store.JobStore` after every step.
* **Resume** — at construction the manager reloads the store: jobs that were
  ``queued`` or ``running`` when the process died re-enter the queue and
  continue from their checkpoint, producing the same final frontier the
  uninterrupted run would have (the incremental explorer is bitwise
  resumable by construction).

The manager needs almost nothing from the service — ``open_exploration``,
the close-hook pair, (optionally) an ``obs`` bundle, and
``current_plan_seq`` when the service has a deployment ``resolver`` (a job
pins the live plan seq at submit) — so tests drive it with stubs and the
real service plugs in unchanged.
"""

from __future__ import annotations

import threading
import time
from collections import deque

from repro.jobs.job import (
    ACTIVE_STATES,
    CANCELLED,
    FAILED,
    Job,
    QUEUED,
    RUNNING,
    SUCCEEDED,
    kernel_of_job_id,
    new_job_id,
)
from repro.jobs.store import JobStore
from repro.serve.wire import explore_report_to_json

__all__ = [
    "JobManager",
    "JobQuotaError",
    "JobTableFullError",
    "UnknownJobError",
]


class JobQuotaError(RuntimeError):
    """A client submitted past its active-jobs quota (retryable: 429)."""

    def __init__(self, client: str, active: int, limit: int) -> None:
        super().__init__(
            f"client {client!r} already has {active} active jobs "
            f"(quota {limit}); wait for one to finish or cancel it"
        )
        self.client = client
        self.active = active
        self.limit = limit


class JobTableFullError(RuntimeError):
    """The job table is full of live jobs (retryable: 429)."""

    def __init__(self, live: int, max_jobs: int) -> None:
        super().__init__(
            f"job table is full: {live} live jobs (max_jobs={max_jobs})"
        )
        self.live = live
        self.max_jobs = max_jobs


class UnknownJobError(KeyError):
    """No such job id in the table (404)."""

    def __init__(self, job_id: str) -> None:
        super().__init__(f"unknown job {job_id!r}")
        self.job_id = job_id


class JobManager:
    """Runs explorations as resumable, streamable, cancellable jobs."""

    def __init__(
        self,
        service,
        *,
        store: JobStore | str | None = None,
        max_jobs: int | None = None,
        max_per_client: int | None = None,
        runners: int | None = None,
        step_delay_s: float | None = None,
        resume: bool = True,
    ) -> None:
        runtime = getattr(service, "runtime", None)
        self.service = service
        self.max_jobs = max_jobs if max_jobs is not None else getattr(
            runtime, "max_jobs", 64
        )
        self.max_per_client = (
            max_per_client
            if max_per_client is not None
            else getattr(runtime, "max_jobs_per_client", 4)
        )
        self.runners = runners if runners is not None else getattr(
            runtime, "job_runners", 2
        )
        self.step_delay_s = (
            step_delay_s
            if step_delay_s is not None
            else getattr(runtime, "job_step_delay_s", 0.0)
        )
        if self.max_jobs < 1 or self.max_per_client < 1 or self.runners < 1:
            raise ValueError("max_jobs, max_per_client and runners must be >= 1")
        if isinstance(store, (str, bytes)) or hasattr(store, "__fspath__"):
            store = JobStore(store)
        self.store: JobStore | None = store
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._jobs: dict[str, Job] = {}
        self._queues: dict[str, deque[str]] = {}
        #: Round-robin cursor over client names (fairness across clients).
        self._rr: list[str] = []
        self._rr_pos = 0
        self._threads: list[threading.Thread] = []
        self._closed = False
        self._obs = getattr(service, "obs", None)
        self._gauge = None
        self._transitions = None
        if self._obs is not None:
            # Idempotent registration: a second manager over the same service
            # (tests) reuses the same families.
            self._gauge = self._obs.metrics.gauge(
                "repro_jobs",
                "Jobs in the table by state",
                labelnames=("state",),
            )
            self._transitions = self._obs.metrics.counter(
                "repro_job_transitions_total",
                "Job state transitions",
                labelnames=("state",),
            )
        add_hook = getattr(service, "add_close_hook", None)
        if add_hook is not None:
            add_hook(self.close)
        if resume and self.store is not None:
            self.resume()

    # ------------------------------------------------------------------ public

    @property
    def closed(self) -> bool:
        return self._closed

    def submit(
        self,
        kernel: str,
        *,
        budget: float | None = None,
        dse_config: dict | None = None,
        client: str = "default",
    ) -> dict:
        """Admit one exploration job; returns its snapshot (``state=queued``)."""
        if budget is not None and dse_config is not None:
            raise ValueError("pass either budget or dse_config, not both")
        params = {"budget": budget, "dse_config": dse_config}
        plan_seq = None
        if getattr(self.service, "resolver", None) is not None:
            # Pin the deployment plan at admission, not at first run: a job
            # still queued when a new plan lands keeps the plan it was
            # submitted under (0 pins "no plan was installed").
            plan_seq = self.service.current_plan_seq() or 0
        with self._cond:
            if self._closed:
                raise RuntimeError("job manager is closed")
            active = sum(
                1
                for job in self._jobs.values()
                if job.client == client and job.state in ACTIVE_STATES
            )
            if active >= self.max_per_client:
                raise JobQuotaError(client, active, self.max_per_client)
            self._make_room()
            job = Job(
                job_id=new_job_id(kernel),
                kernel=kernel,
                client=client,
                params=params,
                plan_seq=plan_seq,
            )
            self._jobs[job.job_id] = job
            if self.store is not None:
                # Fresh ids cannot collide, so this always succeeds; taking
                # the claim at submit (not first run) means a sibling manager
                # sharing the jobs dir can never resume-steal a queued job.
                self.store.claim(job.job_id)
            self._enqueue(job)
            self._record_event("job_submit", job)
            self._count_transition(QUEUED)
            self._checkpoint(job)
            self._ensure_runners()
            self._cond.notify_all()
            self._refresh_gauges()
            return job.snapshot()

    def get(self, job_id: str) -> dict:
        with self._lock:
            return self._job(job_id).snapshot()

    def list(self, client: str | None = None) -> list[dict]:
        with self._lock:
            jobs = sorted(self._jobs.values(), key=lambda j: j.created_s)
            return [
                job.snapshot()
                for job in jobs
                if client is None or job.client == client
            ]

    def updates(self, job_id: str, since: int = 0) -> dict:
        """Updates with ``seq > since`` plus the job's current snapshot."""
        with self._lock:
            job = self._job(job_id)
            return self._updates_payload(job, since)

    def wait_updates(self, job_id: str, since: int = 0, timeout: float = 30.0) -> dict:
        """Long-poll flavour of :meth:`updates`: blocks until news or timeout.

        Returns as soon as an update with ``seq > since`` exists or the job
        is terminal; otherwise after ``timeout`` seconds with an empty list.
        """
        deadline = time.monotonic() + timeout
        with self._cond:
            job = self._job(job_id)
            while job.seq <= since and not job.terminal and not self._closed:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cond.wait(remaining)
            return self._updates_payload(job, since)

    def wait(self, job_id: str, timeout: float | None = None) -> dict:
        """Block until the job is terminal (or timeout); returns its snapshot."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            job = self._job(job_id)
            while not job.terminal and not self._closed:
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    break
                self._cond.wait(remaining if remaining is not None else 1.0)
            return job.snapshot()

    def cancel(self, job_id: str) -> dict:
        """Cancel a job: queued jobs die immediately, running ones at the
        next iteration boundary; cancelling a terminal job is a no-op."""
        with self._cond:
            job = self._job(job_id)
            if job.terminal:
                return job.snapshot()
            if job.state == QUEUED:
                queue = self._queues.get(job.client)
                if queue is not None and job.job_id in queue:
                    queue.remove(job.job_id)
                self._finish(job, CANCELLED)
            else:
                # Cooperative: the runner observes the flag between explorer
                # iterations and performs the terminal transition itself.
                job.cancel_event.set()
                self._record_event("job_cancel", job)
            return job.snapshot()

    def resume(self) -> int:
        """Reload checkpoints; re-enqueue interrupted jobs.  Returns how many.

        Active checkpoints are claimed first (an advisory per-job ``flock``,
        see :class:`~repro.jobs.store.JobStore`): a job another live manager
        holds is skipped *entirely* — not even loaded into the table — so two
        replicas sharing one jobs directory can never both resume the same
        interrupted exploration.  The router still finds the owner: an
        unknown-job 404 walks the whole replica preference order.  Terminal
        checkpoints load unclaimed (they are read-only history).
        """
        if self.store is None:
            return 0
        resumed = 0
        with self._cond:
            for job_id, payload in self.store.load_all().items():
                if job_id in self._jobs:
                    continue
                try:
                    job = Job.from_store(payload)
                except (KeyError, TypeError, ValueError):
                    continue  # unreadable checkpoint: skip, don't crash boot
                if job.state in ACTIVE_STATES and not self.store.claim(job.job_id):
                    continue  # a sibling manager owns this job; leave it be
                self._jobs[job.job_id] = job
                if job.state in ACTIVE_STATES:
                    # A job found queued/running in the store was interrupted
                    # mid-flight; it continues from its checkpoint.
                    job.state = QUEUED
                    job.resumes += 1
                    self._enqueue(job)
                    self._record_event("job_resume", job)
                    self._checkpoint(job)
                    resumed += 1
            if resumed:
                self._ensure_runners()
                self._cond.notify_all()
            self._refresh_gauges()
        return resumed

    def stats(self) -> dict:
        """Table occupancy and policy — what ``/metrics`` exports as ``jobs``."""
        with self._lock:
            by_state: dict[str, int] = {}
            for job in self._jobs.values():
                by_state[job.state] = by_state.get(job.state, 0) + 1
            return {
                "jobs": len(self._jobs),
                "by_state": by_state,
                "queued": sum(len(q) for q in self._queues.values()),
                "clients": sum(1 for q in self._queues.values() if q),
                "max_jobs": self.max_jobs,
                "max_per_client": self.max_per_client,
                "runners": len(self._threads),
                "durable": self.store is not None,
            }

    def close(self) -> None:
        """Stop admitting and drain the runners; running jobs checkpoint and
        stay ``running`` in the store so the next process resumes them."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        remove_hook = getattr(self.service, "remove_close_hook", None)
        if remove_hook is not None:
            remove_hook(self.close)
        for thread in self._threads:
            if thread is not threading.current_thread():
                thread.join(timeout=10.0)
        if self.store is not None:
            # Runners have drained (interrupted jobs are checkpointed
            # `running`); dropping the claims is what lets the next process
            # — or a sibling replica — resume them.
            self.store.release_all()

    # --------------------------------------------------------------- internals

    def _job(self, job_id: str) -> Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise UnknownJobError(job_id)
        return job

    def _updates_payload(self, job: Job, since: int) -> dict:
        if since < 0:
            since = 0
        fresh = job.updates[since:] if since < job.seq else []
        return {
            "job_id": job.job_id,
            "state": job.state,
            "since": since,
            "next_since": job.seq,
            "updates": list(fresh),
        }

    def _make_room(self) -> None:
        """Evict the oldest finished jobs; a table of live jobs is full."""
        while len(self._jobs) >= self.max_jobs:
            finished = [j for j in self._jobs.values() if j.terminal]
            if not finished:
                live = len(self._jobs)
                raise JobTableFullError(live, self.max_jobs)
            oldest = min(finished, key=lambda j: j.finished_s or j.created_s)
            del self._jobs[oldest.job_id]
            if self.store is not None:
                self.store.delete(oldest.job_id)

    def _enqueue(self, job: Job) -> None:
        queue = self._queues.get(job.client)
        if queue is None:
            queue = self._queues[job.client] = deque()
            self._rr.append(job.client)
        queue.append(job.job_id)

    def _next_job(self) -> Job | None:
        """Round-robin over clients, FIFO within each (callers hold the lock)."""
        if not self._rr:
            return None
        for offset in range(len(self._rr)):
            client = self._rr[(self._rr_pos + offset) % len(self._rr)]
            queue = self._queues.get(client)
            if queue:
                self._rr_pos = (self._rr_pos + offset + 1) % len(self._rr)
                return self._jobs[queue.popleft()]
        return None

    def _ensure_runners(self) -> None:
        """Spawn runner threads lazily (callers hold the lock)."""
        while len(self._threads) < self.runners:
            thread = threading.Thread(
                target=self._run_loop,
                name=f"job-runner-{len(self._threads)}",
                daemon=True,
            )
            self._threads.append(thread)
            thread.start()

    def _run_loop(self) -> None:
        while True:
            with self._cond:
                job = self._next_job()
                while job is None and not self._closed:
                    self._cond.wait(1.0)
                    job = self._next_job()
                if job is None:
                    return
                if job.terminal:  # cancelled while queued; nothing to run
                    continue
                job.state = RUNNING
                job.started_s = job.started_s or time.time()
                self._record_event("job_start", job)
                self._count_transition(RUNNING)
                self._refresh_gauges()
            try:
                self._run_job(job)
            except Exception as error:  # noqa: BLE001 - a failed job must
                # land in the table as `failed`, never kill the runner.
                with self._cond:
                    if not job.terminal:
                        job.error = f"{type(error).__name__}: {error}"
                        self._finish(job, FAILED)

    def _run_job(self, job: Job) -> None:
        """Drive one job's exploration session step by step."""
        dse_config = job.params.get("dse_config")
        if isinstance(dse_config, dict):
            from repro.dse.explorer import DSEConfig

            dse_config = DSEConfig(**dse_config)
        kwargs = {}
        if getattr(self.service, "resolver", None) is not None:
            # Replay under the plan seq pinned at submit (0 pins "no plan"),
            # so the trajectory stays bitwise even if a new plan was
            # published while the job queued or was interrupted.  A
            # pre-deployment checkpoint (plan_seq None) snapshots the live
            # plan once here.  Services without a resolver never see the
            # kwarg (the manager's contract with stub services is unchanged).
            kwargs["plan_seq"] = job.plan_seq
        session = self.service.open_exploration(
            job.kernel,
            job.params.get("budget"),
            dse_config=dse_config,
            state=job.explorer_state,
            **kwargs,
        )
        with self._cond:
            job.explorer_state = session.state
            if job.plan_seq is None:
                session_seq = getattr(session, "plan_seq", None)
                job.plan_seq = session_seq if session_seq is not None else 0
            self._checkpoint(job)
        while not session.done:
            if job.cancel_event.is_set() or self._closed:
                break
            update = session.step()
            with self._cond:
                update["seq"] = job.seq + 1
                update["event"] = "iteration"
                job.updates.append(update)
                self._checkpoint(job)
                self._cond.notify_all()
            if self.step_delay_s > 0:
                time.sleep(self.step_delay_s)
        with self._cond:
            if job.cancel_event.is_set() and not session.done:
                self._finish(job, CANCELLED)
                return
            if self._closed and not session.done:
                # Graceful shutdown: leave the job `running` in the store so
                # the next process resumes it from the checkpoint.
                self._checkpoint(job)
                return
        report = session.report()
        with self._cond:
            job.result = explore_report_to_json(report)
            job.explorer_state = None
            self._finish(job, SUCCEEDED)

    def _finish(self, job: Job, state: str) -> None:
        """Terminal transition + final update (callers hold the lock)."""
        job.state = state
        job.finished_s = time.time()
        if state is not SUCCEEDED:
            job.explorer_state = None
        job.updates.append(
            {
                "seq": job.seq + 1,
                "event": "done",
                "state": state,
                **({"error": job.error} if job.error else {}),
            }
        )
        self._record_event("job_finish", job)
        self._count_transition(state)
        self._checkpoint(job)
        if self.store is not None:
            # Terminal jobs are read-only history; any process may list them.
            self.store.release(job.job_id)
        self._cond.notify_all()
        self._refresh_gauges()

    def _checkpoint(self, job: Job) -> None:
        if self.store is not None:
            self.store.save(job.job_id, job.to_store())

    # ----------------------------------------------------------- observability

    def _record_event(self, kind: str, job: Job) -> None:
        if self._obs is not None:
            try:
                self._obs.events.record(
                    kind,
                    job_id=job.job_id,
                    kernel=job.kernel,
                    client=job.client,
                    state=job.state,
                    seq=job.seq,
                )
            except Exception:  # noqa: BLE001 - observability is side-band
                pass

    def _count_transition(self, state: str) -> None:
        if self._transitions is not None:
            self._transitions.labels(state=state).inc()

    def _refresh_gauges(self) -> None:
        if self._gauge is None:
            return
        counts = {QUEUED: 0, RUNNING: 0, SUCCEEDED: 0, FAILED: 0, CANCELLED: 0}
        for job in self._jobs.values():
            counts[job.state] = counts.get(job.state, 0) + 1
        for state, count in counts.items():
            self._gauge.labels(state=state).set(count)


def jobs_dir_for(runtime) -> str | None:
    """The default durable jobs directory of one runtime config.

    ``runtime.jobs_dir`` wins; otherwise a ``jobs/`` subdirectory of the
    persistent cache dir (the cache's GC only scans ``samples/``, so the
    subtree is safe), and ``None`` — memory-only jobs — without either.
    """
    jobs_dir = getattr(runtime, "jobs_dir", None)
    if jobs_dir is not None:
        return str(jobs_dir)
    cache_dir = getattr(runtime, "persistent_cache_dir", None)
    if cache_dir is not None:
        import os.path

        return os.path.join(str(cache_dir), "jobs")
    return None


# re-exported next to the manager for the HTTP layer's convenience
__all__.append("jobs_dir_for")
__all__.append("kernel_of_job_id")
