"""Stdlib-only HTTP front end over the async gateway.

One asyncio server (``asyncio.start_server`` — no new runtime dependencies)
exposes the :class:`~repro.runtime.gateway.AsyncPowerGateway` endpoints as
JSON over HTTP/1.1:

========  =========================  =============================================
method    path                       body / response
========  =========================  =============================================
POST      ``/v1/estimate``           one design point → one estimate
POST      ``/v1/estimate_many``      ``{"requests": [...]}`` → ``{"responses":
                                     [...]}``
POST      ``/v1/jobs/explore``       submit an exploration job → ``202`` with
                                     the ``queued`` job snapshot
GET       ``/v1/jobs``               the job table (``?client=`` to filter)
GET       ``/v1/jobs/{id}``          one job's snapshot (state machine:
                                     ``queued → running → succeeded | failed |
                                     cancelled``)
GET       ``/v1/jobs/{id}/updates``  seq-numbered per-iteration updates;
                                     ``?since=N`` resumes, ``?wait=S``
                                     long-polls, ``?stream=1`` streams one
                                     JSON line per update over chunked
                                     transfer until the job finishes
POST      ``/v1/jobs/{id}/cancel``   cancel (queued dies now, running at the
                                     next iteration boundary)
GET       ``/v1/routes``             this table, machine-readable
                                     (:data:`~repro.runtime.routes
                                     .GATEWAY_ROUTES`)
GET       ``/v1/models``             the registry's manifest index
GET       ``/v1/traces``             recent request traces (``?limit=N`` /
                                     ``?trace_id=...`` for one span tree)
GET       ``/v1/events``             the supervisor event timeline (``?limit=N``
                                     / ``?kind=crash``)
GET       ``/healthz``               liveness + pool supervision (``200 ok`` /
                                     ``200 degraded`` / ``503 closed``)
GET       ``/metrics``               service + runtime + gateway + job stats;
                                     with ``Accept: text/plain`` the Prometheus
                                     text exposition instead of JSON
========  =========================  =============================================

The connection/parsing machinery lives in :class:`AsyncJSONHTTPServer` so
other front ends (the cluster router in :mod:`repro.cluster`) speak the exact
same dialect — status mapping, structured error bodies, request-id echoing,
body limits, chunked streaming — without re-implementing HTTP.  Routing
itself is data: both servers dispatch over the shared
:class:`~repro.runtime.routes.RouteTable` and serve it on ``GET /v1/routes``.

Observability (:mod:`repro.obs`) threads through every request: a
client-supplied ``X-Request-ID`` is honoured (one is minted otherwise) and
echoed on the response; POST API calls open a root ``request`` span whose
tree — gateway admission, coalesce, featurise (worker pids), cache lookups,
forward — lands in the ring ``GET /v1/traces`` serves; each request emits
one structured JSON log line and lands in the per-route counter/latency
histograms.  All of it degrades to no-ops for gateways over bare stub
services without an ``obs`` bundle.

A design point on the wire is the JSON shape of
:class:`~repro.hls.pragmas.DesignDirectives`::

    {"kernel": "atax",
     "directives": {"loops":  {"i": {"unroll": 2, "pipeline": true}},
                    "arrays": {"A": {"factor": 2, "kind": "cyclic"}}}}

Every failure is the unified envelope of :mod:`repro.runtime.errors` —
``{"error": {"type", "message", "retryable"}}`` — with the matching status
code: malformed requests are ``400``, unknown paths/jobs ``404``, wrong
methods ``405``, oversized bodies ``413``, gateway backpressure and job
quotas ``429``, internal faults ``500``, and a closed gateway ``503``.

Connections default to ``Connection: close`` (curl-able, byte-predictable).
A client that sends ``Connection: keep-alive`` may reuse its connection for
up to :data:`KEEP_ALIVE_MAX_REQUESTS` requests with at most
:data:`KEEP_ALIVE_IDLE_TIMEOUT` seconds of idleness between them; error
responses always close.  :class:`HTTPConnectionPool` is the matching client
— the cluster router holds one per replica so proxied requests skip
per-request TCP setup.
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from dataclasses import dataclass, field
from typing import AsyncIterator
from urllib.parse import parse_qs

from repro.hls.pragmas import ArrayPartition, DesignDirectives, LoopPragmas
from repro.obs.logs import get_logger, log_event
from repro.obs.metrics import MetricsRegistry, flatten_numeric
from repro.runtime.errors import (
    HTTPError,
    error_payload,
    http_error_from_exception,
)
from repro.runtime.gateway import AsyncPowerGateway
from repro.runtime.routes import GATEWAY_ROUTES, RouteTable

#: Largest accepted request body; a batch of a few thousand design points is
#: well under this, anything bigger is a client bug.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: How long a client may take to deliver one complete request.  Bounds the
#: damage of idle probes / slowloris connections: a handler task and its fd
#: are released after this instead of being pinned forever.
REQUEST_READ_TIMEOUT = 30.0

#: Keep-alive budget: a connection that opted in (``Connection: keep-alive``)
#: serves at most this many requests before the server closes it anyway, so
#: one client cannot pin a handler task forever.
KEEP_ALIVE_MAX_REQUESTS = 100

#: Idle window between requests on a kept-alive connection.  Expiry closes
#: the connection silently (no 408): an idle pooled client connection is
#: normal, not a protocol fault.  Deliberately much shorter than
#: ``REQUEST_READ_TIMEOUT`` — a parked connection holds a handler task.
KEEP_ALIVE_IDLE_TIMEOUT = 5.0

_STATUS_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


#: Content type of the Prometheus text exposition format (version 0.0.4).
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: How long one long-poll leg of an update stream may park before re-polling
#: (each leg rides a gateway bridge thread; bounded so a stream over a stuck
#: job cannot pin one forever without ever re-checking for shutdown).
STREAM_POLL_SECONDS = 10.0

#: Cap of the ``?wait=`` long-poll window clients may request.
MAX_LONG_POLL_SECONDS = 60.0

_HTTP_LOGGER = get_logger("http")


@dataclass
class RawResponse:
    """A non-JSON response body (the Prometheus exposition) with its type."""

    content_type: str
    body: bytes


@dataclass
class StreamingResponse:
    """A chunked-transfer response: one chunk per yielded bytes object.

    The connection always closes after the stream (chunked framing marks the
    end of the *body*; closing marks the end of the exchange — no keep-alive
    bookkeeping for an unbounded response).  The jobs API streams one JSON
    line per explorer update this way.
    """

    content_type: str
    chunks: AsyncIterator[bytes]


class _ConnectionClosed(Exception):
    """The peer closed the connection between requests (not an error)."""


def _clean_request_id(raw: str | None) -> str:
    """Echoable request id: client value sanitised, or a freshly minted one.

    Only printable non-whitespace ASCII survives (the id goes back out in a
    response *header* — CR/LF or control bytes from the client must never be
    reflected), bounded so a hostile header can't bloat every log line.
    """
    if raw:
        cleaned = "".join(ch for ch in raw if "!" <= ch <= "~")[:128]
        if cleaned:
            return cleaned
    return os.urandom(8).hex()


async def _close_writer(writer: asyncio.StreamWriter) -> None:
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass


# ------------------------------------------------------------------ JSON codec


def _require(obj: dict, key: str, kind, where: str):
    if not isinstance(obj, dict):
        raise HTTPError(400, "bad_request", f"{where} must be a JSON object")
    if key not in obj:
        raise HTTPError(400, "bad_request", f"{where} is missing {key!r}")
    value = obj[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise HTTPError(
            400, "bad_request", f"{where}[{key!r}] must be {kind.__name__}"
        )
    return value


def directives_from_json(obj: dict | None) -> DesignDirectives:
    """Parse the wire shape of a design point; raises 400 on malformed input.

    ``None`` / ``{}`` is the baseline design.  Validation errors from the
    directive dataclasses themselves (negative unroll factors, unknown
    partition kinds) surface as ``400`` too: a malformed design point is a
    client error, never a server fault.
    """
    if obj is None:
        obj = {}
    if not isinstance(obj, dict):
        raise HTTPError(400, "bad_request", "directives must be a JSON object")
    unknown = set(obj) - {"loops", "arrays"}
    if unknown:
        raise HTTPError(
            400, "bad_request", f"unknown directives keys {sorted(unknown)}"
        )
    for section in ("loops", "arrays"):
        if obj.get(section) is not None and not isinstance(obj[section], dict):
            raise HTTPError(400, "bad_request", f"{section} must be a JSON object")
    loops: dict[str, LoopPragmas] = {}
    for name, spec in (obj.get("loops") or {}).items():
        if not isinstance(spec, dict):
            raise HTTPError(400, "bad_request", f"loops[{name!r}] must be an object")
        bad_keys = set(spec) - {"unroll", "pipeline"}
        if bad_keys:
            # Strict here too: a typo'd pragma key silently ignored would
            # return a confident estimate of the wrong (baseline) design.
            raise HTTPError(
                400,
                "bad_request",
                f"unknown loops[{name!r}] keys {sorted(bad_keys)} "
                "(expected 'unroll', 'pipeline')",
            )
        unroll = spec.get("unroll", 1)
        pipeline = spec.get("pipeline", False)
        # Strict types: int(2.5) would silently estimate a *different* design.
        if isinstance(unroll, bool) or not isinstance(unroll, int):
            raise HTTPError(
                400, "bad_request", f"loops[{name!r}]['unroll'] must be an integer"
            )
        if not isinstance(pipeline, bool):
            raise HTTPError(
                400, "bad_request", f"loops[{name!r}]['pipeline'] must be a boolean"
            )
        try:
            loops[name] = LoopPragmas(unroll_factor=unroll, pipeline=pipeline)
        except ValueError as error:
            raise HTTPError(400, "bad_request", f"loops[{name!r}]: {error}") from error
    arrays: dict[str, ArrayPartition] = {}
    for name, spec in (obj.get("arrays") or {}).items():
        if not isinstance(spec, dict):
            raise HTTPError(400, "bad_request", f"arrays[{name!r}] must be an object")
        bad_keys = set(spec) - {"factor", "kind"}
        if bad_keys:
            raise HTTPError(
                400,
                "bad_request",
                f"unknown arrays[{name!r}] keys {sorted(bad_keys)} "
                "(expected 'factor', 'kind')",
            )
        factor = spec.get("factor", 1)
        kind = spec.get("kind", "cyclic")
        if isinstance(factor, bool) or not isinstance(factor, int):
            raise HTTPError(
                400, "bad_request", f"arrays[{name!r}]['factor'] must be an integer"
            )
        if not isinstance(kind, str):
            raise HTTPError(
                400, "bad_request", f"arrays[{name!r}]['kind'] must be a string"
            )
        try:
            arrays[name] = ArrayPartition(factor=factor, kind=kind)
        except ValueError as error:
            raise HTTPError(400, "bad_request", f"arrays[{name!r}]: {error}") from error
    return DesignDirectives.from_dicts(loops, arrays)


def directives_to_json(directives: DesignDirectives) -> dict:
    """Inverse of :func:`directives_from_json` (used by the demo client)."""
    return {
        "loops": {
            name: {"unroll": pragmas.unroll_factor, "pipeline": pragmas.pipeline}
            for name, pragmas in directives.loop_pragmas
        },
        "arrays": {
            name: {"factor": partition.factor, "kind": partition.kind}
            for name, partition in directives.array_partitions
        },
    }


def estimate_request_from_json(obj: dict):
    """Build an :class:`~repro.serve.service.EstimateRequest` from wire JSON."""
    from repro.serve.service import EstimateRequest

    kernel = _require(obj, "kernel", str, "request")
    unknown = set(obj) - {"kernel", "directives"}
    if unknown:
        raise HTTPError(400, "bad_request", f"unknown request keys {sorted(unknown)}")
    return EstimateRequest(
        kernel=kernel, directives=directives_from_json(obj.get("directives"))
    )


def response_to_json(response) -> dict:
    payload = {
        "kernel": response.kernel,
        "directives": response.directives,
        "power": response.power,
        "target": response.target,
        "cached_features": response.cached_features,
        "cached_prediction": response.cached_prediction,
        "latency_ms": response.latency_ms,
        "model_fingerprint": response.model_fingerprint,
    }
    # Only designs a deployment rule actually routed carry the attribution
    # key; everything else (no plan installed, or a design falling through
    # to the default model) keeps the pre-deployment wire shape byte for
    # byte.
    served_by = getattr(response, "served_by", None)
    if served_by is not None:
        payload["served_by"] = served_by
    return payload


# -------------------------------------------------------------------- server


class AsyncJSONHTTPServer:
    """Connection/protocol half of the HTTP front ends.

    Owns everything below routing: the accept loop, request parsing (with
    line/header/body limits), the opt-in keep-alive loop, structured error
    bodies, response serialisation and graceful drain-on-close.  Subclasses
    implement :meth:`_dispatch` (route the request, return
    ``(status, payload)``) and may override :meth:`_account` for per-request
    metrics.  :class:`GatewayHTTPServer` serves one gateway;
    :class:`repro.cluster.router.ClusterRouter` serves a replica set.
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_body_bytes: int = MAX_BODY_BYTES,
        read_timeout: float = REQUEST_READ_TIMEOUT,
        keep_alive_max_requests: int = KEEP_ALIVE_MAX_REQUESTS,
        keep_alive_idle_s: float = KEEP_ALIVE_IDLE_TIMEOUT,
    ) -> None:
        self.host = host
        self.port = port
        self.max_body_bytes = max_body_bytes
        self.read_timeout = read_timeout
        self.keep_alive_max_requests = keep_alive_max_requests
        self.keep_alive_idle_s = keep_alive_idle_s
        self._server: asyncio.Server | None = None
        self._handlers: set[asyncio.Task] = set()
        # Handlers parked between requests (waiting for the next request
        # line), by task → transport.  aclose() closes these transports so a
        # kept-alive connection drains immediately instead of waiting out
        # its idle window.
        self._idle: dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._closing = False

    # ------------------------------------------------------------- lifecycle

    async def start(self) -> tuple[str, int]:
        """Bind and start serving; returns the bound ``(host, port)``.

        ``port=0`` binds an ephemeral port (the norm in tests and demos);
        the bound port is also written back to ``self.port``.
        """
        self._server = await asyncio.start_server(self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self.host, self.port

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    async def aclose(self) -> None:
        self._closing = True
        server, self._server = self._server, None
        if server is not None:
            server.close()
            await server.wait_closed()
        for idle_writer in list(self._idle.values()):
            idle_writer.close()
        # wait_closed does not cover connection handlers on 3.10/3.11; drain
        # them explicitly so every accepted request still gets its response.
        while self._handlers:
            await asyncio.gather(*list(self._handlers), return_exceptions=True)

    async def __aenter__(self):
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    # --------------------------------------------------------------- handling

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
        try:
            served = 0
            while True:
                started = time.perf_counter()
                method: str | None = None
                path: str | None = None
                request_id: str | None = None
                keep_alive = False
                try:
                    # The first request races the full read timeout (408 on
                    # expiry, same as ever); later requests on a kept-alive
                    # connection race the much shorter idle window and
                    # expire silently.
                    timeout = self.read_timeout if served == 0 else self.keep_alive_idle_s
                    if task is not None:
                        self._idle[task] = writer
                    try:
                        method, path, query, headers, body = await asyncio.wait_for(
                            self._read_request(reader), timeout=timeout
                        )
                    finally:
                        if task is not None:
                            self._idle.pop(task, None)
                    request_id = _clean_request_id(headers.get("x-request-id"))
                    keep_alive = (
                        headers.get("connection", "").strip().lower() == "keep-alive"
                        and served + 1 < self.keep_alive_max_requests
                        and not self._closing
                    )
                    status, payload = await self._dispatch(
                        method, path, query, headers, body, request_id
                    )
                except asyncio.TimeoutError:
                    if served:
                        return  # idle keep-alive connection: close quietly
                    status = 408
                    payload = error_payload(
                        408,
                        "timeout",
                        f"request not received within {self.read_timeout:.0f}s",
                    )
                except _ConnectionClosed:
                    return  # clean EOF between requests: nothing to answer
                except HTTPError as error:
                    keep_alive = False  # error responses always close
                    status = error.status
                    payload = error.payload()
                except Exception as error:  # noqa: BLE001 - boundary: every fault
                    # becomes a structured 500 instead of a dropped connection.
                    keep_alive = False
                    status = 500
                    payload = error_payload(
                        500, "internal", f"{type(error).__name__}: {error}"
                    )
                keep_alive = await self._write_response(
                    writer, status, payload, request_id=request_id, keep_alive=keep_alive
                )
                self._account(method, path, status, started, request_id)
                served += 1
                if not keep_alive or self._closing:
                    return
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # Client went away mid-exchange; nothing to answer.
        finally:
            if task is not None:
                self._handlers.discard(task)
                self._idle.pop(task, None)
            await _close_writer(writer)

    async def _dispatch(
        self,
        method: str,
        path: str,
        query: dict,
        headers: dict,
        body: bytes,
        request_id: str,
    ) -> tuple[int, dict | RawResponse]:
        raise NotImplementedError

    def _account(
        self,
        method: str | None,
        path: str | None,
        status: int,
        started: float,
        request_id: str | None,
    ) -> None:
        """Hook: per-request accounting (metrics, logs).  Default: none."""

    async def _read_request(self, reader: asyncio.StreamReader):
        try:
            return await self._read_request_inner(reader)
        except ValueError as error:
            # StreamReader raises ValueError past its 64 KiB line limit: an
            # oversized request line / header is the client's fault, not ours.
            raise HTTPError(400, "bad_request", f"unreadable request: {error}") from error

    async def _read_request_inner(self, reader: asyncio.StreamReader):
        request_line_bytes = await reader.readline()
        if not request_line_bytes:
            # Clean EOF before a request line: the peer closed a kept-alive
            # connection (or connected and never spoke) — not a protocol error.
            raise _ConnectionClosed
        request_line = request_line_bytes.decode("latin-1").rstrip("\r\n")
        parts = request_line.split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise HTTPError(400, "bad_request", f"malformed request line {request_line!r}")
        method, path, _version = parts
        headers: dict[str, str] = {}
        for _ in range(100):
            line = (await reader.readline()).decode("latin-1").rstrip("\r\n")
            if not line:
                break
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        else:
            raise HTTPError(400, "bad_request", "too many request headers")
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            raise HTTPError(400, "bad_request", "malformed Content-Length") from None
        if length < 0:
            raise HTTPError(400, "bad_request", "malformed Content-Length")
        if length > self.max_body_bytes:
            raise HTTPError(
                413,
                "payload_too_large",
                f"body of {length} bytes exceeds the {self.max_body_bytes}-byte limit",
            )
        body = await reader.readexactly(length) if length else b""
        path, _, query_string = path.partition("?")
        return method, path, parse_qs(query_string), headers, body

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict | RawResponse | StreamingResponse,
        *,
        request_id: str | None = None,
        keep_alive: bool = False,
    ) -> bool:
        """Serialise and send; returns whether the connection stays open."""
        request_id_header = (
            f"X-Request-ID: {request_id}\r\n" if request_id is not None else ""
        )
        reason = _STATUS_REASONS.get(status, "Unknown")
        if isinstance(payload, StreamingResponse):
            head = (
                f"HTTP/1.1 {status} {reason}\r\n"
                f"Content-Type: {payload.content_type}\r\n"
                "Transfer-Encoding: chunked\r\n"
                f"{request_id_header}"
                "Connection: close\r\n"
                "\r\n"
            )
            writer.write(head.encode("latin-1"))
            await writer.drain()
            # A fault mid-stream cannot become a status line any more (the
            # head is on the wire); closing without the 0-length terminal
            # chunk is the unambiguous truncation signal chunked framing
            # gives us.
            async for chunk in payload.chunks:
                if not chunk:
                    continue
                writer.write(f"{len(chunk):x}\r\n".encode("latin-1") + chunk + b"\r\n")
                await writer.drain()
            writer.write(b"0\r\n\r\n")
            await writer.drain()
            return False
        if isinstance(payload, RawResponse):
            body = payload.body
            content_type = payload.content_type
        else:
            content_type = "application/json"
            try:
                # allow_nan=False: strict JSON on the wire (NaN/Infinity leaks
                # become a structured 500 here instead of an unparsable body).
                body = json.dumps(payload, allow_nan=False).encode()
            except (TypeError, ValueError):
                status = 500
                reason = _STATUS_REASONS[500]
                keep_alive = False
                body = json.dumps(
                    error_payload(500, "internal", "unserialisable response payload")
                ).encode()
        connection = "keep-alive" if keep_alive else "close"
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{request_id_header}"
            f"Connection: {connection}\r\n"
            "\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()
        return keep_alive

    @staticmethod
    def _int_param(query: dict, name: str, default: int, minimum: int = 1) -> int:
        values = query.get(name)
        if not values:
            return default
        try:
            value = int(values[0])
        except ValueError:
            raise HTTPError(400, "bad_request", f"{name} must be an integer") from None
        if value < minimum:
            raise HTTPError(400, "bad_request", f"{name} must be >= {minimum}")
        return value

    @staticmethod
    def _float_param(query: dict, name: str, default: float | None) -> float | None:
        values = query.get(name)
        if not values:
            return default
        try:
            value = float(values[0])
        except ValueError:
            raise HTTPError(400, "bad_request", f"{name} must be a number") from None
        if value < 0:
            raise HTTPError(400, "bad_request", f"{name} must be >= 0")
        return value


class GatewayHTTPServer(AsyncJSONHTTPServer):
    """The asyncio HTTP server; one instance serves one gateway.

    ``registry`` is optional — without one, ``/v1/models`` answers with an
    empty index instead of failing (a service constructed straight from a
    fitted model has no registry to list).  The jobs API is served when the
    gateway carries a :class:`~repro.jobs.manager.JobManager` (``503
    jobs_disabled`` otherwise).
    """

    #: The route table this server dispatches over and serves on /v1/routes.
    routes_table: RouteTable = GATEWAY_ROUTES

    def __init__(
        self,
        gateway: AsyncPowerGateway,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        registry=None,
        max_body_bytes: int = MAX_BODY_BYTES,
        read_timeout: float = REQUEST_READ_TIMEOUT,
        keep_alive_max_requests: int = KEEP_ALIVE_MAX_REQUESTS,
        keep_alive_idle_s: float = KEEP_ALIVE_IDLE_TIMEOUT,
    ) -> None:
        super().__init__(
            host=host,
            port=port,
            max_body_bytes=max_body_bytes,
            read_timeout=read_timeout,
            keep_alive_max_requests=keep_alive_max_requests,
            keep_alive_idle_s=keep_alive_idle_s,
        )
        self.gateway = gateway
        self.registry = registry

    async def aclose(self, *, close_gateway: bool = False) -> None:
        await super().aclose()
        if close_gateway:
            await self.gateway.aclose(close_service=True)

    # --------------------------------------------------------------- handling

    async def _dispatch(
        self,
        method: str,
        path: str,
        query: dict,
        headers: dict,
        body: bytes,
        request_id: str,
    ) -> tuple[int, dict | RawResponse]:
        """Route the request, under a root ``request`` span for API calls.

        Only the POST endpoints open a root span: a scraped ``/metrics`` or
        ``/healthz`` probe every few seconds would otherwise wash the actual
        request traces out of the bounded ring.
        """
        obs = self._obs()
        tracer = obs.tracer if obs is not None else None
        if (
            tracer is None
            or not tracer.enabled
            or method != "POST"
            or not path.startswith("/v1/")
        ):
            return await self._route(method, path, query, headers, body)
        with tracer.span("request", method=method, path=path) as span:
            tracer.set_request_id(request_id)
            status, payload = await self._route(method, path, query, headers, body)
            span.set_attribute("status", status)
            return status, payload

    def _obs(self):
        # Duck-typed, same as the gateway: a bare stub service has no obs
        # bundle and the HTTP layer simply goes uninstrumented.
        return getattr(self.gateway.service, "obs", None)

    def _account(
        self,
        method: str | None,
        path: str | None,
        status: int,
        started: float,
        request_id: str | None,
    ) -> None:
        """Per-route counter + latency histogram + one structured log line."""
        obs = self._obs()
        if obs is None or method is None:
            return
        # Route patterns collapse path params (every /v1/jobs/<id> is one
        # label) and unknown paths share "other", so a scanner can't mint
        # unbounded label children in the registry.
        route = self.routes_table.metrics_label(path)
        elapsed = time.perf_counter() - started
        try:
            obs.http_requests.labels(path=route, status=str(status)).inc()
            obs.http_seconds.labels(path=route).observe(elapsed)
            log_event(
                _HTTP_LOGGER,
                "http.request",
                method=method,
                path=path,
                status=status,
                latency_ms=round(elapsed * 1e3, 3),
                request_id=request_id,
            )
        except Exception:  # noqa: BLE001 - accounting must never fail a request
            pass

    # ---------------------------------------------------------------- routing

    async def _route(
        self, method: str, path: str, query: dict, headers: dict, body: bytes
    ) -> tuple[int, dict | RawResponse | StreamingResponse]:
        route, params = self.routes_table.match(method, path)
        handler = getattr(self, f"_{route.name}")
        if route.method in ("POST", "PUT"):
            try:
                parsed = json.loads(body.decode() or "null")
            except (UnicodeDecodeError, json.JSONDecodeError) as error:
                raise HTTPError(400, "bad_request", f"invalid JSON body: {error}") from error
            if parsed is None:
                parsed = {}
            if not isinstance(parsed, dict):
                raise HTTPError(400, "bad_request", "body must be a JSON object")
            status, payload = await handler(parsed, headers, params)
        else:
            status, payload = await handler(query, headers, params)
        return status, payload

    async def _call_gateway(self, coroutine):
        """Map the gateway's typed failures onto the unified error envelope."""
        try:
            return await coroutine
        except HTTPError:
            raise
        except Exception as error:  # noqa: BLE001 - typed mapping below;
            # anything unrecognised re-raises out of http_error_from_exception
            # for the boundary's generic 500.
            raise http_error_from_exception(error) from error

    def _jobs_manager(self):
        if self.gateway.jobs is None:
            raise HTTPError(
                503,
                "jobs_disabled",
                "the jobs API is not enabled on this server",
                retryable=False,
            )
        return self.gateway.jobs

    @staticmethod
    def _client_id(headers: dict, body: dict | None = None) -> str:
        """The quota identity of a submission: body field, else header."""
        if body is not None and body.get("client") is not None:
            client = body["client"]
            if not isinstance(client, str) or not client:
                raise HTTPError(400, "bad_request", "client must be a string")
            return client[:128]
        raw = headers.get("x-client-id", "")
        cleaned = "".join(ch for ch in raw if "!" <= ch <= "~")[:128]
        return cleaned or "default"

    async def _estimate(self, body: dict, headers: dict, params: dict) -> tuple[int, dict]:
        request = estimate_request_from_json(body)
        response = await self._call_gateway(self.gateway.estimate(request))
        return 200, response_to_json(response)

    async def _estimate_many(
        self, body: dict, headers: dict, params: dict
    ) -> tuple[int, dict]:
        raw = _require(body, "requests", list, "body")
        requests = [estimate_request_from_json(item) for item in raw]
        responses = await self._call_gateway(self.gateway.estimate_many(requests))
        return 200, {"responses": [response_to_json(r) for r in responses]}

    # ------------------------------------------------------------------- jobs

    async def _submit_explore_job(
        self, body: dict, headers: dict, params: dict
    ) -> tuple[int, dict]:
        self._jobs_manager()
        kernel = _require(body, "kernel", str, "body")
        unknown = set(body) - {"kernel", "budget", "dse_config", "client"}
        if unknown:
            raise HTTPError(400, "bad_request", f"unknown job keys {sorted(unknown)}")
        budget = body.get("budget")
        if budget is not None and (
            isinstance(budget, bool) or not isinstance(budget, (int, float))
        ):
            raise HTTPError(400, "bad_request", "budget must be a number")
        dse_config = body.get("dse_config")
        if dse_config is not None and not isinstance(dse_config, dict):
            raise HTTPError(400, "bad_request", "dse_config must be a JSON object")
        if budget is not None and dse_config is not None:
            raise HTTPError(
                400, "bad_request", "pass either budget or dse_config, not both"
            )
        snapshot = await self._call_gateway(
            self.gateway.submit_job(
                kernel,
                budget=float(budget) if budget is not None else None,
                dse_config=dse_config,
                client=self._client_id(headers, body),
            )
        )
        return 202, snapshot

    async def _list_jobs(self, query: dict, headers: dict, params: dict) -> tuple[int, dict]:
        self._jobs_manager()
        client_values = query.get("client")
        client = client_values[0] if client_values else None
        jobs = await self._call_gateway(self.gateway.list_jobs(client))
        return 200, {"jobs": jobs}

    async def _get_job(self, query: dict, headers: dict, params: dict) -> tuple[int, dict]:
        self._jobs_manager()
        snapshot = await self._call_gateway(self.gateway.job(params["job_id"]))
        return 200, snapshot

    async def _job_updates(
        self, query: dict, headers: dict, params: dict
    ) -> tuple[int, dict | StreamingResponse]:
        self._jobs_manager()
        job_id = params["job_id"]
        since = self._int_param(query, "since", default=0, minimum=0)
        stream = query.get("stream", ["0"])[0] not in ("", "0", "false")
        wait = self._float_param(query, "wait", default=None)
        if stream:
            # Resolve the job *before* committing to a 200 chunked head: an
            # unknown id must still be an ordinary 404 envelope.
            await self._call_gateway(self.gateway.job(job_id))
            return 200, StreamingResponse(
                "application/x-ndjson", self._stream_updates(job_id, since)
            )
        if wait is not None:
            payload = await self._call_gateway(
                self.gateway.wait_updates(
                    job_id, since, timeout=min(wait, MAX_LONG_POLL_SECONDS)
                )
            )
        else:
            payload = await self._call_gateway(self.gateway.job_updates(job_id, since))
        return 200, payload

    async def _stream_updates(self, job_id: str, since: int):
        """One JSON line per update, long-polling the manager underneath,
        until the terminal ``done`` update has been emitted."""
        while True:
            payload = await self._call_gateway(
                self.gateway.wait_updates(job_id, since, timeout=STREAM_POLL_SECONDS)
            )
            done = False
            for update in payload["updates"]:
                yield json.dumps(update, allow_nan=False).encode() + b"\n"
                done = done or update.get("event") == "done"
            since = payload["next_since"]
            if done:
                return
            if not payload["updates"] and payload["state"] not in ("queued", "running"):
                # Streaming resumed past the end of a finished log.
                return
            if self._closing or self.gateway.closed:
                return

    async def _cancel_job(self, body: dict, headers: dict, params: dict) -> tuple[int, dict]:
        self._jobs_manager()
        snapshot = await self._call_gateway(self.gateway.cancel_job(params["job_id"]))
        return 200, snapshot

    # ------------------------------------------------------------ deployments

    def _require_deployments(self) -> None:
        if getattr(self.gateway.service, "resolver", None) is None:
            raise HTTPError(
                503,
                "deployments_disabled",
                "deployments are not enabled: the service has no model registry",
                retryable=False,
            )

    @staticmethod
    def _deployment_pattern(body: dict) -> str | None:
        unknown = set(body) - {"pattern"}
        if unknown:
            raise HTTPError(
                400, "bad_request", f"unknown deployment keys {sorted(unknown)}"
            )
        pattern = body.get("pattern")
        if pattern is not None and (not isinstance(pattern, str) or not pattern):
            raise HTTPError(400, "bad_request", "pattern must be a non-empty string")
        return pattern

    async def _get_deployment(
        self, query: dict, headers: dict, params: dict
    ) -> tuple[int, dict]:
        self._require_deployments()
        return 200, await self._call_gateway(self.gateway.get_deployment())

    async def _put_deployment(
        self, body: dict, headers: dict, params: dict
    ) -> tuple[int, dict]:
        self._require_deployments()
        return 200, await self._call_gateway(self.gateway.put_deployment(body))

    async def _promote_deployment(
        self, body: dict, headers: dict, params: dict
    ) -> tuple[int, dict]:
        self._require_deployments()
        pattern = self._deployment_pattern(body)
        return 200, await self._call_gateway(self.gateway.promote_deployment(pattern))

    async def _rollback_deployment(
        self, body: dict, headers: dict, params: dict
    ) -> tuple[int, dict]:
        self._require_deployments()
        pattern = self._deployment_pattern(body)
        return 200, await self._call_gateway(self.gateway.rollback_deployment(pattern))

    async def _routes(self, query: dict, headers: dict, params: dict) -> tuple[int, dict]:
        return 200, {"version": "v1", "routes": self.routes_table.describe()}

    async def _models(self, query: dict, headers: dict, params: dict) -> tuple[int, dict]:
        if self.registry is None:
            return 200, {"models": []}
        loop = asyncio.get_running_loop()

        def list_index() -> list[dict]:
            return [
                {
                    "name": name,
                    "versions": self.registry.versions(name),
                    "latest": self.registry.latest_version(name),
                }
                for name in self.registry.list_models()
            ]

        # Registry listing touches the filesystem; keep it off the event loop.
        return 200, {"models": await loop.run_in_executor(None, list_index)}

    async def _healthz(self, query: dict, headers: dict, params: dict) -> tuple[int, dict]:
        """Liveness plus pool-supervision state.

        A pool in post-crash backoff (or retired to the serial path) turns
        the response *degraded*, not dead: still ``200`` — the service
        answers every request with identical results, only slower — with the
        per-pool health snapshots attached so an operator can see the fault,
        the restart budget and the pool sizes.  Only a closed gateway/service
        is ``503``.
        """
        if self.gateway.closed:
            return 503, {"status": "closed"}
        service_health = getattr(self.gateway.service, "health", None)
        if service_health is None:
            return 200, {"status": "ok"}
        return 200, service_health()

    async def _traces(self, query: dict, headers: dict, params: dict) -> tuple[int, dict]:
        """Recent request traces (newest first), or one trace by id."""
        obs = self._obs()
        if obs is None:
            return 200, {"traces": [], "stats": {}}
        trace_id = query.get("trace_id")
        if trace_id:
            trace = obs.tracer.find(trace_id[0])
            if trace is None:
                raise HTTPError(404, "not_found", f"no trace {trace_id[0]!r} in the ring")
            return 200, {"trace": trace}
        limit = self._int_param(query, "limit", default=20)
        return 200, {"traces": obs.tracer.recent(limit), "stats": obs.tracer.stats()}

    async def _events(self, query: dict, headers: dict, params: dict) -> tuple[int, dict]:
        """The supervisor event timeline (oldest first)."""
        obs = self._obs()
        if obs is None:
            return 200, {"events": [], "stats": {}}
        limit = self._int_param(query, "limit", default=100)
        kind_values = query.get("kind")
        kind = kind_values[0] if kind_values else None
        return 200, {
            "events": obs.events.snapshot(limit=limit, kind=kind),
            "stats": obs.events.stats(),
        }

    async def _metrics(
        self, query: dict, headers: dict, params: dict
    ) -> tuple[int, dict | RawResponse]:
        snapshot = self.gateway.service.metrics_snapshot()
        snapshot["gateway"] = self.gateway.stats.as_dict()
        if self.gateway.jobs is not None:
            snapshot["jobs"] = self.gateway.jobs.stats()
        if "text/plain" not in headers.get("accept", ""):
            return 200, snapshot
        # Prometheus exposition: the obs registry renders its own instruments
        # (histograms with buckets, labelled counters, gauges); the legacy
        # JSON stats sections are projected in as extra flat gauges.  The
        # "latency"/"observability" sections are *views over the registry* —
        # flattening them too would export every series twice.
        obs = self._obs()
        projected: dict = {}
        for section in ("service", "runtime", "gateway", "jobs", "closed"):
            if section in snapshot:
                flatten_numeric(f"repro_{section}", snapshot[section], projected)
        registry = obs.metrics if obs is not None else MetricsRegistry()
        text = registry.render_prometheus(extra_gauges=projected)
        return 200, RawResponse(PROMETHEUS_CONTENT_TYPE, text.encode())


# ------------------------------------------------------------------- client


async def request_raw(
    host: str,
    port: int,
    method: str,
    path: str,
    body: dict | None = None,
    headers: dict[str, str] | None = None,
) -> tuple[int, dict[str, str], bytes]:
    """Minimal asyncio HTTP client (tests and demos; not a public API).

    Speaks exactly the dialect the server emits — one request per
    connection — and returns ``(status, response_headers, body_bytes)``
    with header names lowercased.  ``headers`` lets a caller set
    ``X-Request-ID`` or ``Accept: text/plain`` (the Prometheus scrape).
    """
    reader, writer = await asyncio.open_connection(host, port)
    try:
        payload = json.dumps(body).encode() if body is not None else b""
        extra = "".join(
            f"{name}: {value}\r\n" for name, value in (headers or {}).items()
        )
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {host}:{port}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"{extra}"
            "Connection: close\r\n"
            "\r\n"
        )
        writer.write(head.encode("latin-1") + payload)
        await writer.drain()
        status, response_headers, data = await _read_client_response(reader)
        return status, response_headers, data
    finally:
        await _close_writer(writer)


async def request_json(
    host: str,
    port: int,
    method: str,
    path: str,
    body: dict | None = None,
    headers: dict[str, str] | None = None,
) -> tuple[int, dict]:
    """:func:`request_raw` with the body parsed as JSON → ``(status, payload)``."""
    status, _, data = await request_raw(host, port, method, path, body, headers)
    return status, json.loads(data.decode() or "null")


async def _read_client_response(
    reader: asyncio.StreamReader,
) -> tuple[int, dict[str, str], bytes]:
    status, response_headers = await _read_client_head(reader)
    if response_headers.get("transfer-encoding", "").lower() == "chunked":
        data = b"".join([chunk async for chunk in _read_chunks(reader)])
        return status, response_headers, data
    length = int(response_headers.get("content-length", "0"))
    data = await reader.readexactly(length) if length else b""
    return status, response_headers, data


async def _read_client_head(
    reader: asyncio.StreamReader,
) -> tuple[int, dict[str, str]]:
    status_line = (await reader.readline()).decode("latin-1")
    if not status_line:
        raise ConnectionError("connection closed before a status line")
    status = int(status_line.split()[1])
    response_headers: dict[str, str] = {}
    while True:
        line = (await reader.readline()).decode("latin-1").rstrip("\r\n")
        if not line:
            break
        name, _, value = line.partition(":")
        response_headers[name.strip().lower()] = value.strip()
    return status, response_headers


async def _read_chunks(reader: asyncio.StreamReader):
    """Decode chunked transfer encoding, one yielded bytes object per chunk.

    A connection closed before the 0-length terminal chunk raises — chunked
    framing makes truncation detectable, and a half-delivered update stream
    must fail loudly, not look complete.
    """
    while True:
        size_line = (await reader.readline()).decode("latin-1").strip()
        if not size_line:
            raise ConnectionError("connection closed mid-stream (no terminal chunk)")
        size = int(size_line.split(";")[0], 16)
        if size == 0:
            await reader.readline()  # trailing CRLF after the terminal chunk
            return
        chunk = await reader.readexactly(size)
        await reader.readexactly(2)  # CRLF after each chunk
        yield chunk


async def stream_json_lines(
    host: str,
    port: int,
    path: str,
    headers: dict[str, str] | None = None,
):
    """Client half of the chunked update stream: yields one parsed JSON
    object per line as the server emits them (tests and demos).

    Raises :class:`~repro.runtime.errors.HTTPError` when the server answers
    with an error envelope instead of a stream.
    """
    reader, writer = await asyncio.open_connection(host, port)
    try:
        extra = "".join(
            f"{name}: {value}\r\n" for name, value in (headers or {}).items()
        )
        head = (
            f"GET {path} HTTP/1.1\r\n"
            f"Host: {host}:{port}\r\n"
            f"{extra}"
            "Connection: close\r\n"
            "\r\n"
        )
        writer.write(head.encode("latin-1"))
        await writer.drain()
        status, response_headers = await _read_client_head(reader)
        if response_headers.get("transfer-encoding", "").lower() != "chunked":
            length = int(response_headers.get("content-length", "0"))
            data = await reader.readexactly(length) if length else b""
            detail = json.loads(data.decode() or "{}").get("error", {})
            raise HTTPError(
                status,
                detail.get("type", "error"),
                detail.get("message", f"{path} answered {status} without a stream"),
                retryable=detail.get("retryable"),
            )
        buffer = b""
        async for chunk in _read_chunks(reader):
            buffer += chunk
            while b"\n" in buffer:
                line, _, buffer = buffer.partition(b"\n")
                if line.strip():
                    yield json.loads(line.decode())
        if buffer.strip():
            yield json.loads(buffer.decode())
    finally:
        await _close_writer(writer)


@dataclass
class _PooledConnection:
    reader: asyncio.StreamReader
    writer: asyncio.StreamWriter
    served: int = field(default=0)


class HTTPConnectionPool:
    """Keep-alive HTTP/1.1 client for one ``(host, port)`` target.

    The cluster router holds one pool per replica: sequential requests ride
    the same TCP connection (``Connection: keep-alive``) instead of paying
    connection setup per request; concurrent requests each open their own
    connection and up to ``max_idle`` of them are parked for reuse.

    A parked connection the server has since closed (request cap, idle
    timeout, restart) must not fail the request, so the exchange is retried
    on a fresh connection.  A failure on the *fresh* connection raises
    :class:`ConnectionError` — the caller's signal that the target itself is
    down (the router's cue to retry on the next replica in ring order).
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        max_idle: int = 8,
        request_timeout: float = 60.0,
    ) -> None:
        self.host = host
        self.port = port
        self.max_idle = max_idle
        self.request_timeout = request_timeout
        self._idle: list[_PooledConnection] = []
        self._closed = False
        self.created = 0
        self.reused = 0

    async def request(
        self,
        method: str,
        path: str,
        body: dict | bytes | None = None,
        headers: dict[str, str] | None = None,
    ) -> tuple[int, dict[str, str], bytes]:
        """One request/response exchange → ``(status, headers, body_bytes)``.

        ``body`` may be pre-serialised bytes (the router relays client
        payloads verbatim) or a JSON-able dict.
        """
        if self._closed:
            raise ConnectionError(f"pool for {self.host}:{self.port} is closed")
        payload = self._encode_body(body)
        while True:
            # Parked connections first (LIFO: the most recently used one is
            # the least likely to have idled out server-side), then fresh.
            conn = self._idle.pop() if self._idle else None
            fresh = conn is None
            if fresh:
                try:
                    reader, writer = await asyncio.wait_for(
                        asyncio.open_connection(self.host, self.port),
                        self.request_timeout,
                    )
                except (OSError, asyncio.TimeoutError) as error:
                    raise ConnectionError(
                        f"cannot connect to {self.host}:{self.port}: "
                        f"{error or type(error).__name__}"
                    ) from error
                conn = _PooledConnection(reader, writer)
                self.created += 1
            try:
                status, response_headers, data = await asyncio.wait_for(
                    self._exchange(conn, method, path, payload, headers),
                    self.request_timeout,
                )
            except (
                ConnectionError,
                asyncio.IncompleteReadError,
                asyncio.TimeoutError,
                OSError,
            ) as error:
                await _close_writer(conn.writer)
                if fresh:
                    raise ConnectionError(
                        f"request to {self.host}:{self.port} failed: "
                        f"{error or type(error).__name__}"
                    ) from error
                continue  # stale parked connection; try again
            if not fresh:
                self.reused += 1
            conn.served += 1
            if (
                response_headers.get("connection", "").lower() == "keep-alive"
                and not self._closed
                and len(self._idle) < self.max_idle
            ):
                self._idle.append(conn)
            else:
                await _close_writer(conn.writer)
            return status, response_headers, data

    async def request_json(
        self,
        method: str,
        path: str,
        body: dict | bytes | None = None,
        headers: dict[str, str] | None = None,
    ) -> tuple[int, dict]:
        status, _, data = await self.request(method, path, body, headers)
        return status, json.loads(data.decode() or "null")

    async def _exchange(
        self,
        conn: _PooledConnection,
        method: str,
        path: str,
        payload: bytes,
        headers: dict[str, str] | None,
    ) -> tuple[int, dict[str, str], bytes]:
        extra = "".join(
            f"{name}: {value}\r\n" for name, value in (headers or {}).items()
        )
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"{extra}"
            "Connection: keep-alive\r\n"
            "\r\n"
        )
        conn.writer.write(head.encode("latin-1") + payload)
        await conn.writer.drain()
        return await _read_client_response(conn.reader)

    @staticmethod
    def _encode_body(body: dict | bytes | None) -> bytes:
        if body is None:
            return b""
        if isinstance(body, (bytes, bytearray)):
            return bytes(body)
        return json.dumps(body, allow_nan=False).encode()

    def stats(self) -> dict:
        return {"created": self.created, "reused": self.reused, "idle": len(self._idle)}

    async def aclose(self) -> None:
        self._closed = True
        idle, self._idle = self._idle, []
        for conn in idle:
            await _close_writer(conn.writer)
