"""Async front end: thousands of awaitable requests over the threaded runtime.

The serving runtime of PR 2 is thread-shaped: concurrent ``estimate`` calls
coalesce in the :class:`~repro.runtime.microbatch.MicroBatcher` only if they
arrive on concurrent *threads*, and a blocked caller holds its thread for the
whole batch window.  A DSE driver holding thousands of in-flight estimates
would need thousands of threads.  :class:`AsyncPowerGateway` bridges the gap:
it exposes ``estimate`` / ``estimate_many`` and the jobs API as coroutines, and
carries each accepted call over a bounded thread pool onto the synchronous
:class:`~repro.serve.service.PowerEstimationService`, so one event loop can
hold arbitrarily many awaitable requests while a fixed number of bridge
threads feeds the same micro-batcher / worker pool / cache stack underneath.

Admission control makes the bridge bounded end to end: at most
``max_in_flight`` designs may be submitted-but-unanswered at once, and a
submission over the limit fast-fails with the typed
:class:`GatewayBackpressureError` instead of queueing unboundedly — the
caller (or the HTTP layer, as a ``429``) decides whether to retry, shed, or
slow down.  Because every accepted call runs the unmodified service methods,
gateway results are exactly the direct path's: ``estimate_many`` responses
are bitwise-identical, and coalesced singles match direct calls the same way
thread-level coalescing does.

The gateway registers itself as a service close hook, so a service shut down
mid-request flips the gateway closed: requests already in flight complete on
the service's degraded serial path, new ones fast-fail with
:class:`GatewayClosedError`.
"""

from __future__ import annotations

import asyncio
import contextvars
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

from repro.runtime.config import RuntimeConfig


class GatewayError(RuntimeError):
    """Base class of the gateway's typed submission failures."""


class GatewayClosedError(GatewayError):
    """Submission after the gateway (or its service) was closed."""


class GatewayBackpressureError(GatewayError):
    """Fast-fail of a submission that would exceed ``max_in_flight``.

    Carries the observed load so callers can build retry / shedding policies
    without parsing the message.
    """

    def __init__(self, in_flight: int, max_in_flight: int, cost: int) -> None:
        super().__init__(
            f"gateway at capacity: {in_flight} designs in flight + {cost} "
            f"submitted > max_in_flight={max_in_flight}"
        )
        self.in_flight = in_flight
        self.max_in_flight = max_in_flight
        self.cost = cost


@dataclass
class GatewayStats:
    """Counters of one gateway's lifetime (all mutated on the event loop).

    Every counter is in *designs*, not submissions — a rejected batch of 100
    adds 100 to ``rejected`` just as an accepted one adds 100 to
    ``submitted`` — so acceptance rates computed across the counters
    reconcile under batch traffic.
    """

    submitted: int = 0
    completed: int = 0
    rejected: int = 0
    errors: int = 0
    in_flight: int = 0
    peak_in_flight: int = 0

    def as_dict(self) -> dict:
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "rejected": self.rejected,
            "errors": self.errors,
            "in_flight": self.in_flight,
            "peak_in_flight": self.peak_in_flight,
        }


class AsyncPowerGateway:
    """Awaitable ``estimate`` / ``estimate_many`` and jobs over a service.

    Single-event-loop object: submissions must come from one running loop
    (the admission counter relies on the loop's serialised callbacks instead
    of a lock).  The blocking service calls themselves run on the gateway's
    bridge thread pool, so the micro-batcher sees real concurrent threads and
    coalescing works exactly as it does for thread-based callers.
    """

    def __init__(
        self,
        service,
        *,
        max_in_flight: int | None = None,
        threads: int | None = None,
        jobs=None,
    ) -> None:
        runtime: RuntimeConfig = service.runtime
        self.service = service
        #: The :class:`~repro.jobs.manager.JobManager` serving the jobs API,
        #: or ``None`` on a gateway without the async job tier.
        self.jobs = jobs
        self.max_in_flight = (
            max_in_flight if max_in_flight is not None else runtime.gateway_max_in_flight
        )
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        thread_count = threads if threads is not None else runtime.gateway_threads
        if thread_count < 1:
            raise ValueError("threads must be >= 1")
        self._executor = ThreadPoolExecutor(
            max_workers=thread_count, thread_name_prefix="power-gateway"
        )
        self.threads = thread_count
        self.stats = GatewayStats()
        # Duck-typed: a full service carries an Observability bundle; bare
        # stubs (tests, alternative services) simply go uninstrumented.
        self._obs = getattr(service, "obs", None)
        self._pending: set[asyncio.Future] = set()
        self._closed = False
        # A service closed out from under the gateway closes the gateway too:
        # in-flight calls finish on the degraded serial path, new submissions
        # fast-fail instead of piling onto a half-torn-down runtime.
        service.add_close_hook(self._mark_closed)

    # ------------------------------------------------------------------ public

    @property
    def closed(self) -> bool:
        # Two-sided: a gateway built over an already-closed service (or one
        # whose service closed in a hook-registration race) must report
        # closed everywhere — health checks included — not just on submit.
        return self._closed or self.service.closed

    async def estimate(self, request):
        """Awaitable single-design estimate (coalesces with concurrent calls)."""
        return await self._submit(self.service.estimate, request, cost=1)

    async def estimate_many(self, requests: list) -> list:
        """Awaitable batch estimate; bitwise-identical to the direct call.

        The whole batch counts against ``max_in_flight`` at submission, so a
        burst of large batches is shed as eagerly as a burst of singles.
        """
        requests = list(requests)
        return await self._submit(
            self.service.estimate_many, requests, cost=max(len(requests), 1)
        )

    def runtime_stats(self) -> dict:
        """Gateway counters plus the underlying service's runtime stats."""
        stats = self.service.runtime_stats()
        stats["gateway"] = self.stats.as_dict()
        if self.jobs is not None:
            stats["jobs"] = self.jobs.stats()
        return stats

    # ------------------------------------------------------------------- jobs
    #
    # The job verbs hop the same bridge pool but skip admission accounting:
    # a job *submission* is a table insert (the admission policy lives in the
    # JobManager's own quota/table bounds), and polls/cancels are reads that
    # must keep working even when the estimate path is at max_in_flight —
    # rejecting a status poll under load would hide exactly the state the
    # caller needs to see.

    def _require_jobs(self):
        if self.jobs is None:
            raise KeyError("the jobs API is not enabled on this gateway")
        return self.jobs

    async def _job_call(self, fn, *args, **kwargs):
        if self._closed:
            raise GatewayClosedError("gateway is closed")
        loop = asyncio.get_running_loop()
        ctx = contextvars.copy_context()
        try:
            return await loop.run_in_executor(
                self._executor, partial(ctx.run, partial(fn, *args, **kwargs))
            )
        except RuntimeError as error:
            if self._executor is None or "shutdown" in str(error):
                raise GatewayClosedError("gateway is closed") from None
            raise

    async def submit_job(
        self,
        kernel: str,
        *,
        budget: float | None = None,
        dse_config: dict | None = None,
        client: str = "default",
    ) -> dict:
        """Submit one exploration job; returns its ``queued`` snapshot."""
        manager = self._require_jobs()
        return await self._job_call(
            manager.submit,
            kernel,
            budget=budget,
            dse_config=dse_config,
            client=client,
        )

    async def job(self, job_id: str) -> dict:
        return await self._job_call(self._require_jobs().get, job_id)

    async def list_jobs(self, client: str | None = None) -> list[dict]:
        return await self._job_call(self._require_jobs().list, client)

    async def job_updates(self, job_id: str, since: int = 0) -> dict:
        return await self._job_call(self._require_jobs().updates, job_id, since)

    async def wait_updates(
        self, job_id: str, since: int = 0, timeout: float = 30.0
    ) -> dict:
        """Long-poll: blocks (on a bridge thread) until news or timeout."""
        return await self._job_call(
            self._require_jobs().wait_updates, job_id, since, timeout
        )

    async def cancel_job(self, job_id: str) -> dict:
        return await self._job_call(self._require_jobs().cancel, job_id)

    # ------------------------------------------------------------ deployments
    #
    # Deployment verbs ride the same bridge pool (plan reads and publishes
    # touch the registry directory) and likewise skip admission accounting:
    # an operator inspecting or rolling back the live plan must get through
    # even when the estimate path is saturated.

    async def get_deployment(self) -> dict:
        return await self._job_call(self.service.deployment_view)

    async def put_deployment(self, document: dict) -> dict:
        return await self._job_call(self.service.put_deployment, document)

    async def promote_deployment(self, pattern: str | None = None) -> dict:
        return await self._job_call(self.service.promote_deployment, pattern)

    async def rollback_deployment(self, pattern: str | None = None) -> dict:
        return await self._job_call(self.service.rollback_deployment, pattern)

    async def aclose(self, *, close_service: bool = False) -> None:
        """Stop admitting, drain in-flight calls, shut the bridge pool down.

        With ``close_service=True`` also closes the underlying service (off
        the event loop — closing joins worker processes).  Idempotent.
        """
        self._closed = True
        # A gateway that dies before its (long-lived) service must not stay
        # reachable through the service's close-hook list.
        self.service.remove_close_hook(self._mark_closed)
        while self._pending:
            await asyncio.gather(*list(self._pending), return_exceptions=True)
        loop = asyncio.get_running_loop()
        executor = self._executor
        if executor is not None:
            self._executor = None
            await loop.run_in_executor(None, partial(executor.shutdown, wait=True))
        if close_service and not self.service.closed:
            await loop.run_in_executor(None, self.service.close)

    async def __aenter__(self) -> "AsyncPowerGateway":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    # --------------------------------------------------------------- internals

    def _mark_closed(self) -> None:
        # Runs on whichever thread called service.close(); a bare flag write
        # is atomic enough — the admission check on the loop sees it on its
        # next submission.
        self._closed = True

    def _admit(self, cost: int) -> None:
        if self._closed or self.service.closed:
            self.stats.rejected += cost
            self._count_designs("rejected_closed", cost)
            raise GatewayClosedError("gateway is closed")
        if cost > self.max_in_flight:
            # Not backpressure: this submission could never be admitted, even
            # on an idle gateway.  A retryable error here would have clients
            # retrying forever; a ValueError tells them to split the batch.
            self.stats.rejected += cost
            self._count_designs("rejected_oversize", cost)
            raise ValueError(
                f"batch of {cost} designs exceeds the gateway's capacity "
                f"(max_in_flight={self.max_in_flight}); split the batch"
            )
        if self.stats.in_flight + cost > self.max_in_flight:
            self.stats.rejected += cost
            self._count_designs("rejected_backpressure", cost)
            raise GatewayBackpressureError(
                self.stats.in_flight, self.max_in_flight, cost
            )
        self.stats.submitted += cost
        self.stats.in_flight += cost
        self.stats.peak_in_flight = max(self.stats.peak_in_flight, self.stats.in_flight)
        self._count_designs("admitted", cost)

    def _count_designs(self, outcome: str, cost: int) -> None:
        if self._obs is not None:
            self._obs.gateway_designs.labels(outcome=outcome).inc(cost)

    def _release(self, cost: int, future: asyncio.Future) -> None:
        self.stats.in_flight -= cost
        if future.cancelled() or future.exception() is not None:
            self.stats.errors += cost
        else:
            self.stats.completed += cost
        self._pending.discard(future)

    async def _submit(self, fn, *args, cost: int):
        tracer = self._obs.tracer if self._obs is not None else None
        if tracer is None or not tracer.enabled:
            return await self._submit_inner(fn, args, cost)
        with tracer.span("gateway", cost=cost) as span:
            span.set_attribute("in_flight", self.stats.in_flight)
            return await self._submit_inner(fn, args, cost)

    async def _submit_inner(self, fn, args, cost: int):
        self._admit(cost)
        loop = asyncio.get_running_loop()
        # Copy the calling context over the thread hop: run_in_executor does
        # not propagate contextvars, so without this the blocking service
        # call would start a fresh trace instead of nesting under the
        # request/gateway spans.
        ctx = contextvars.copy_context()
        try:
            future = loop.run_in_executor(self._executor, partial(ctx.run, fn, *args))
        except BaseException:
            # The executor refused (shut down between the closed check and
            # here); undo the admission so the slot is not leaked.
            self.stats.in_flight -= cost
            self.stats.submitted -= cost
            self.stats.rejected += cost
            raise GatewayClosedError("gateway is closed") from None
        self._pending.add(future)
        future.add_done_callback(partial(self._release, cost))
        # Shield the bridge future: cancelling the awaiting task must not
        # orphan the accounting (the service call is running on a thread and
        # completes regardless; its done-callback releases the slot).
        return await asyncio.shield(future)
