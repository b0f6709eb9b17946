"""Serving subsystem: durable model artifacts, caching, the service façade.

This package turns the trained PowerGear estimator into a long-lived service:

* :mod:`repro.serve.registry` — versioned on-disk model artifacts that load
  back bit-exactly,
* :mod:`repro.serve.cache` — content-addressed memoisation of featurisation
  and predictions across requests,
* :mod:`repro.serve.service` — the :class:`PowerEstimationService` façade with
  ``estimate`` / ``estimate_many`` / ``explore`` endpoints and latency /
  throughput instrumentation.
"""

from repro.serve.cache import (
    CacheStats,
    InferenceCache,
    LRUStore,
    content_key,
    sample_fingerprint,
)
from repro.serve.registry import (
    ModelArtifact,
    ModelRegistry,
    REGISTRY_FORMAT_VERSION,
    config_from_dict,
    config_to_dict,
    load_artifact_dir,
)
from repro.serve.service import (
    EstimateRequest,
    EstimateResponse,
    ExploreReport,
    FrontierDesign,
    PowerEstimationService,
    ServiceMetrics,
)

__all__ = [
    "CacheStats",
    "InferenceCache",
    "LRUStore",
    "content_key",
    "sample_fingerprint",
    "ModelArtifact",
    "ModelRegistry",
    "REGISTRY_FORMAT_VERSION",
    "config_to_dict",
    "config_from_dict",
    "load_artifact_dir",
    "EstimateRequest",
    "EstimateResponse",
    "ExploreReport",
    "FrontierDesign",
    "PowerEstimationService",
    "ServiceMetrics",
]
