"""``repro.client`` — the typed client of the versioned ``/v1`` API.

:class:`PowerClient` wraps the wire protocol — pooled keep-alive
connections, the unified error envelope, the job lifecycle — behind typed
methods, so callers never hand-build paths or parse ``{"error": ...}``
bodies.  It speaks to either HTTP front end (a single
:class:`~repro.runtime.http.GatewayHTTPServer` or a
:class:`~repro.cluster.router.ClusterRouter`): both serve the same route
table, which is the point of defining it once.

Async by construction (the natural shape over
:class:`~repro.runtime.http.HTTPConnectionPool`, and what a DSE driver
holding many in-flight jobs wants)::

    async with PowerClient(host, port, client_id="sweeps") as client:
        job = await client.submit_explore("atax", budget=0.4)
        async for update in client.iter_updates(job["job_id"]):
            print(update["iteration"], update["frontier_size"])
        done = await client.wait(job["job_id"])

Failures raise :class:`PowerAPIError` carrying the envelope's machine-
readable ``error_type`` and the ``retryable`` policy bit — a backoff loop
branches on ``error.retryable``, never on message strings.
"""

from __future__ import annotations

import asyncio

from repro.runtime.http import HTTPConnectionPool

__all__ = ["PowerAPIError", "PowerClient"]

#: Job states after which no further transition happens.
TERMINAL_JOB_STATES = frozenset({"succeeded", "failed", "cancelled"})


class PowerAPIError(RuntimeError):
    """A structured API failure: the unified error envelope, typed.

    ``retryable`` mirrors the envelope: ``True`` means the identical request
    may succeed later (backpressure, quota, restart), ``False`` means it
    won't (malformed request, unknown job, internal fault).
    """

    def __init__(
        self, status: int, error_type: str, message: str, retryable: bool
    ) -> None:
        super().__init__(f"{status} {error_type}: {message}")
        self.status = status
        self.error_type = error_type
        self.message = message
        self.retryable = retryable

    @staticmethod
    def from_payload(status: int, payload: dict) -> "PowerAPIError":
        detail = payload.get("error") if isinstance(payload, dict) else None
        detail = detail if isinstance(detail, dict) else {}
        return PowerAPIError(
            status,
            detail.get("type", "error"),
            detail.get("message", f"request failed with status {status}"),
            bool(detail.get("retryable", False)),
        )


class PowerClient:
    """Typed asyncio client for the ``/v1`` API (estimates, jobs, deployments).

    ``client_id`` is the quota identity job submissions ride under (the
    ``X-Client-ID`` header); distinct drivers should pick distinct ids so
    one driver's queue cannot starve another's admission quota.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        client_id: str = "default",
        request_timeout: float = 300.0,
    ) -> None:
        self.client_id = client_id
        self._pool = HTTPConnectionPool(
            host, port, request_timeout=request_timeout
        )

    # ------------------------------------------------------------- plumbing

    async def _call(
        self, method: str, path: str, body: dict | None = None
    ) -> dict:
        status, payload = await self._pool.request_json(
            method, path, body, {"X-Client-ID": self.client_id}
        )
        if status >= 400:
            raise PowerAPIError.from_payload(status, payload)
        return payload

    async def aclose(self) -> None:
        await self._pool.aclose()

    async def __aenter__(self) -> "PowerClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    # ------------------------------------------------------------- estimates

    async def estimate(self, kernel: str, directives: dict | None = None) -> dict:
        """One design point → one estimate (the wire shape of
        :class:`~repro.serve.service.EstimateResponse`)."""
        body: dict = {"kernel": kernel}
        if directives is not None:
            body["directives"] = directives
        return await self._call("POST", "/v1/estimate", body)

    async def estimate_many(self, requests: list[dict]) -> list[dict]:
        """A batch of design points, answered in request order."""
        payload = await self._call(
            "POST", "/v1/estimate_many", {"requests": list(requests)}
        )
        return payload["responses"]

    # ------------------------------------------------------------------ jobs

    async def submit_explore(
        self,
        kernel: str,
        *,
        budget: float | None = None,
        dse_config: dict | None = None,
    ) -> dict:
        """Submit one exploration job; returns its ``queued`` snapshot."""
        body: dict = {"kernel": kernel}
        if budget is not None:
            body["budget"] = budget
        if dse_config is not None:
            body["dse_config"] = dse_config
        return await self._call("POST", "/v1/jobs/explore", body)

    async def job(self, job_id: str) -> dict:
        """One job's snapshot (state machine + progress + result)."""
        return await self._call("GET", f"/v1/jobs/{job_id}")

    async def jobs(self, client: str | None = None) -> list[dict]:
        suffix = f"?client={client}" if client else ""
        payload = await self._call("GET", f"/v1/jobs{suffix}")
        return payload["jobs"]

    async def updates(self, job_id: str, since: int = 0) -> dict:
        """One non-blocking poll of the seq-numbered update log."""
        return await self._call("GET", f"/v1/jobs/{job_id}/updates?since={since}")

    async def iter_updates(self, job_id: str, since: int = 0):
        """Async-iterate a job's updates live, long-polling underneath,
        until the terminal ``done`` update (which is also yielded)."""
        while True:
            payload = await self._call(
                "GET", f"/v1/jobs/{job_id}/updates?since={since}&wait=10"
            )
            for update in payload["updates"]:
                yield update
                if update.get("event") == "done":
                    return
            since = payload["next_since"]
            if not payload["updates"] and payload["state"] in TERMINAL_JOB_STATES:
                return  # resumed past the end of a finished log

    async def wait(
        self, job_id: str, timeout: float | None = None, poll_s: float = 0.25
    ) -> dict:
        """Block until the job is terminal; returns its final snapshot."""
        deadline = (
            None if timeout is None else asyncio.get_event_loop().time() + timeout
        )
        while True:
            snapshot = await self.job(job_id)
            if snapshot["state"] in TERMINAL_JOB_STATES:
                return snapshot
            if deadline is not None and asyncio.get_event_loop().time() > deadline:
                raise TimeoutError(
                    f"job {job_id} still {snapshot['state']} after {timeout}s"
                )
            await asyncio.sleep(poll_s)

    async def cancel(self, job_id: str) -> dict:
        return await self._call("POST", f"/v1/jobs/{job_id}/cancel", {})

    async def explore(self, kernel: str, budget: float | None = None) -> dict:
        """Submit + wait + unwrap: a blocking explore built on the jobs API."""
        job = await self.submit_explore(kernel, budget=budget)
        snapshot = await self.wait(job["job_id"])
        if snapshot["state"] != "succeeded":
            raise PowerAPIError(
                500,
                f"job_{snapshot['state']}",
                snapshot.get("error") or f"job {job['job_id']} {snapshot['state']}",
                False,
            )
        return snapshot["result"]

    # ---------------------------------------------------------- deployments

    async def get_deployment(self) -> dict:
        """The live deployment view: plan (or ``None``), seq, default model."""
        return await self._call("GET", "/v1/deployments")

    async def put_deployment(self, plan: dict) -> dict:
        """Publish a deployment plan document; returns the installed view.

        A plan referencing an artifact the registry lacks raises
        :class:`PowerAPIError` with ``error_type == "unknown_artifact"``
        (not retryable) — the unified envelope, not a stringly 400.
        """
        return await self._call("PUT", "/v1/deployments", dict(plan))

    async def promote(self, pattern: str | None = None) -> dict:
        """Promote challenger(s) to champion — all rules, or one pattern."""
        body = {} if pattern is None else {"pattern": pattern}
        return await self._call("POST", "/v1/deployments/promote", body)

    async def rollback(self, pattern: str | None = None) -> dict:
        """Drop challenger(s) from the live plan — all rules, or one pattern."""
        body = {} if pattern is None else {"pattern": pattern}
        return await self._call("POST", "/v1/deployments/rollback", body)

    # ----------------------------------------------------------- discovery

    async def routes(self) -> list[dict]:
        """The server's machine-readable route table (``GET /v1/routes``)."""
        payload = await self._call("GET", "/v1/routes")
        return payload["routes"]

    async def healthz(self) -> dict:
        return await self._call("GET", "/healthz")

    def stats(self) -> dict:
        """Connection-pool counters (created/reused/idle)."""
        return self._pool.stats()
