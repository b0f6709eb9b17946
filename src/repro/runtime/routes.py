"""The machine-readable route table both HTTP front ends serve from.

Before the jobs API the gateway server and the cluster router each carried a
hand-maintained ``{path: (method, handler)}`` dict — two copies of the same
public surface that had already drifted once (the router has no
``/v1/traces``).  This module is the single definition: a
:class:`RouteTable` of :class:`Route` entries (method, path pattern, handler
name, request/response schema names), matched with ``{param}`` segments so
``/v1/jobs/{job_id}`` routes without regexes.

Both servers resolve ``Route.name`` against their own bound handlers and
both answer ``GET /v1/routes`` with :meth:`RouteTable.describe` — clients
can discover the surface instead of hard-coding it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.runtime.errors import HTTPError

__all__ = ["GATEWAY_ROUTES", "ROUTER_ROUTES", "Route", "RouteTable"]


@dataclass(frozen=True)
class Route:
    """One public endpoint: its wire shape and the handler name serving it."""

    method: str
    pattern: str
    #: Handler name; each server binds it to its own ``_<name>`` method.
    name: str
    #: Schema names are documentation-grade identifiers (they name the JSON
    #: shapes in the README's API reference), not validation hooks.
    request_schema: str | None = None
    response_schema: str | None = None

    def match(self, path: str) -> dict[str, str] | None:
        """Path params when ``path`` matches this pattern, else ``None``."""
        pattern_parts = self.pattern.split("/")
        path_parts = path.split("/")
        if len(pattern_parts) != len(path_parts):
            return None
        params: dict[str, str] = {}
        for expected, actual in zip(pattern_parts, path_parts):
            if expected.startswith("{") and expected.endswith("}"):
                if not actual:
                    return None
                params[expected[1:-1]] = actual
            elif expected != actual:
                return None
        return params

    def describe(self) -> dict:
        return {
            "method": self.method,
            "path": self.pattern,
            "name": self.name,
            "request_schema": self.request_schema,
            "response_schema": self.response_schema,
        }


class RouteTable:
    """Ordered routes with 404/405-correct matching and metrics labels."""

    def __init__(self, routes: list[Route]) -> None:
        self.routes = list(routes)

    def match(self, method: str, path: str) -> tuple[Route, dict[str, str]]:
        """Resolve ``(method, path)``; raises the structured 404/405.

        A path served under a different method is a 405 naming the expected
        method(s); a path no route serves is a 404 — the distinction the old
        hand-rolled dicts also made.
        """
        allowed: list[str] = []
        for route in self.routes:
            params = route.match(path)
            if params is None:
                continue
            if route.method == method:
                return route, params
            allowed.append(route.method)
        if allowed:
            raise HTTPError(
                405,
                "method_not_allowed",
                f"{path} expects {' or '.join(sorted(set(allowed)))}, got {method}",
            )
        raise HTTPError(404, "not_found", f"no route for {path}")

    def metrics_label(self, path: str | None) -> str:
        """The bounded per-route metrics label: the pattern, or ``"other"``.

        Patterns collapse every ``/v1/jobs/<id>`` onto one label, so a
        scanner minting random paths (or random job ids) cannot mint
        unbounded label children in the registry.
        """
        if path is not None:
            for route in self.routes:
                if route.match(path) is not None:
                    return route.pattern
        return "other"

    def describe(self) -> list[dict]:
        """What ``GET /v1/routes`` serves."""
        return [route.describe() for route in self.routes]


#: The job lifecycle routes, shared verbatim by both servers.
_JOB_ROUTES = [
    Route(
        "POST",
        "/v1/jobs/explore",
        "submit_explore_job",
        request_schema="ExploreJobRequest",
        response_schema="JobSubmitted",
    ),
    Route("GET", "/v1/jobs", "list_jobs", response_schema="JobList"),
    Route("GET", "/v1/jobs/{job_id}", "get_job", response_schema="Job"),
    Route(
        "GET",
        "/v1/jobs/{job_id}/updates",
        "job_updates",
        response_schema="JobUpdates",
    ),
    Route(
        "POST",
        "/v1/jobs/{job_id}/cancel",
        "cancel_job",
        response_schema="Job",
    ),
]

#: The deployment-plan control plane, shared verbatim by both servers: read
#: and replace the live plan, and promote / roll back its canaries.
_DEPLOYMENT_ROUTES = [
    Route(
        "GET",
        "/v1/deployments",
        "get_deployment",
        response_schema="DeploymentView",
    ),
    Route(
        "PUT",
        "/v1/deployments",
        "put_deployment",
        request_schema="DeploymentPlan",
        response_schema="DeploymentView",
    ),
    Route(
        "POST",
        "/v1/deployments/promote",
        "promote_deployment",
        request_schema="DeploymentAction",
        response_schema="DeploymentView",
    ),
    Route(
        "POST",
        "/v1/deployments/rollback",
        "rollback_deployment",
        request_schema="DeploymentAction",
        response_schema="DeploymentView",
    ),
]

#: What one gateway (single replica) serves.
GATEWAY_ROUTES = RouteTable(
    [
        Route(
            "POST",
            "/v1/estimate",
            "estimate",
            request_schema="EstimateRequest",
            response_schema="EstimateResponse",
        ),
        Route(
            "POST",
            "/v1/estimate_many",
            "estimate_many",
            request_schema="EstimateManyRequest",
            response_schema="EstimateManyResponse",
        ),
        *_JOB_ROUTES,
        *_DEPLOYMENT_ROUTES,
        Route("GET", "/v1/routes", "routes", response_schema="RouteTable"),
        Route("GET", "/v1/models", "models", response_schema="ModelIndex"),
        Route("GET", "/v1/traces", "traces", response_schema="TraceRing"),
        Route("GET", "/v1/events", "events", response_schema="EventLog"),
        Route("GET", "/healthz", "healthz", response_schema="Health"),
        Route("GET", "/metrics", "metrics", response_schema="Metrics"),
    ]
)

#: What the cluster router serves (same dialect, minus per-replica traces,
#: plus the cluster control plane).
ROUTER_ROUTES = RouteTable(
    [
        Route(
            "POST",
            "/v1/estimate",
            "estimate",
            request_schema="EstimateRequest",
            response_schema="EstimateResponse",
        ),
        Route(
            "POST",
            "/v1/estimate_many",
            "estimate_many",
            request_schema="EstimateManyRequest",
            response_schema="EstimateManyResponse",
        ),
        *_JOB_ROUTES,
        *_DEPLOYMENT_ROUTES,
        Route("GET", "/v1/routes", "routes", response_schema="RouteTable"),
        Route("GET", "/v1/models", "models", response_schema="ModelIndex"),
        Route("GET", "/v1/cluster", "cluster", response_schema="ClusterView"),
        Route("GET", "/v1/events", "events", response_schema="EventLog"),
        Route("GET", "/healthz", "healthz", response_schema="Health"),
        Route("GET", "/metrics", "metrics", response_schema="Metrics"),
    ]
)
