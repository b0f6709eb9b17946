"""Parallel serving runtime: the layer between the service façade and the engine.

Three components turn the synchronous, single-process
:class:`~repro.serve.service.PowerEstimationService` of PR 1 into a parallel
runtime, each independently switchable through :class:`RuntimeConfig`:

* :mod:`repro.runtime.pool` — :class:`WorkerPool` shards per-kernel
  featurisation (the dominant serving cost) across worker processes with a
  deterministic merge: pooled results are bitwise-identical to the serial
  path's; :class:`ForwardPool` shards the packed mega-graph forward itself
  across ensemble members on read-only shared-memory parameter blocks
  (:mod:`repro.runtime.shm`), with the same contiguous-shard merge
  guarantee;
* :mod:`repro.runtime.microbatch` — :class:`MicroBatcher` coalesces concurrent
  single-design ``estimate`` calls into packed batches under a size/deadline
  policy (injectable clock, so the policy is testable without sleeping);
* :mod:`repro.runtime.cache` — :class:`PersistentCache`, the on-disk
  content-addressed second tier under the inference cache with cost-aware
  (featurisation-seconds-saved) eviction, so hit rates survive restarts.

:mod:`repro.runtime.supervisor` wraps both pools in a supervised lifecycle
(:class:`SupervisedPool`): bounded restart-on-crash with exponential backoff
(worker deaths surface as :class:`WorkerCrashError`) at a fixed worker
count, and per-pool health snapshots the service threads through ``runtime_stats()`` and the HTTP ``/metrics`` / ``/healthz``
endpoints.

Two front-end modules layer on top (PR 3):

* :mod:`repro.runtime.gateway` — :class:`AsyncPowerGateway` exposes the
  service endpoints as coroutines with bounded admission control, bridging
  thousands of awaitable requests onto the thread-based coalescer;
* :mod:`repro.runtime.http` — a stdlib-only asyncio HTTP server with JSON
  endpoints over the gateway (``/v1/estimate``, ``/v1/estimate_many``,
  ``/v1/jobs/explore``, ``/v1/models``, ``/healthz``, ``/metrics``).

The core runtime depends only on the featurisation pipeline and the graph
containers — never on :mod:`repro.serve` — so the service can layer on top of
it without an import cycle.  The two front-end modules sit above the service
and are deliberately *not* imported here: importing :mod:`repro.runtime` must
stay cheap and cycle-free for the service itself.
"""

from repro.runtime.cache import PERSISTENT_FORMAT_VERSION, PersistentCache
from repro.runtime.config import RuntimeConfig
from repro.runtime.microbatch import ItemError, MicroBatcher, MicroBatchStats
from repro.runtime.pool import (
    ForwardPool,
    ForwardPoolStats,
    PoolStats,
    WorkerCrashError,
    WorkerPool,
    available_cpus,
    default_start_method,
    shard_evenly,
)
from repro.runtime.shm import (
    ParameterBlockSpec,
    SharedParameterBlock,
    attach_parameter_block,
)
from repro.runtime.supervisor import (
    PoolClosedError,
    PoolRetiredError,
    SupervisedPool,
)

__all__ = [
    "PERSISTENT_FORMAT_VERSION",
    "PersistentCache",
    "RuntimeConfig",
    "ItemError",
    "MicroBatcher",
    "MicroBatchStats",
    "ForwardPool",
    "ForwardPoolStats",
    "ParameterBlockSpec",
    "PoolClosedError",
    "PoolRetiredError",
    "PoolStats",
    "SharedParameterBlock",
    "SupervisedPool",
    "WorkerCrashError",
    "WorkerPool",
    "attach_parameter_block",
    "available_cpus",
    "default_start_method",
    "shard_evenly",
]
