"""Backend-equivalence property suite.

The contract of :mod:`repro.backend`: every registered backend produces
**bitwise-identical** forward-path results.  This suite drives random graphs
and batches through the full stack — ``predict_batch``, ``estimate_many``
(fresh and through the :class:`InferenceCache`), and the pooled forward — and
compares raw float bytes between the ``numpy`` reference and the
``optimized`` backend.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import available_backends, use_backend
from repro.flow.powergear import PowerGear, PowerGearConfig
from repro.gnn.config import GNNConfig
from repro.gnn.ensemble import EnsembleConfig
from repro.gnn.trainer import TrainingConfig
from repro.runtime import RuntimeConfig
from repro.serve import EstimateRequest, PowerEstimationService

from test_serve_service import build_synthetic_samples


@pytest.fixture(scope="module")
def single_model():
    samples = build_synthetic_samples(36, seed=5)
    model = PowerGear(
        PowerGearConfig(
            target="dynamic",
            gnn=GNNConfig(hidden_dim=10, num_layers=2),
            training=TrainingConfig(epochs=4, batch_size=16),
            ensemble=None,
        )
    ).fit(samples[:24])
    return model, samples


@pytest.fixture(scope="module")
def ensemble_model():
    samples = build_synthetic_samples(36, seed=9)
    model = PowerGear(
        PowerGearConfig(
            target="dynamic",
            gnn=GNNConfig(hidden_dim=10, num_layers=2),
            training=TrainingConfig(epochs=3, batch_size=16),
            ensemble=EnsembleConfig(folds=2, seeds=(0, 1)),  # 4 members
        )
    ).fit(samples[:24])
    return model, samples


def _bitwise(a: np.ndarray, b: np.ndarray, label: str) -> None:
    assert a.shape == b.shape, label
    assert a.tobytes() == b.tobytes(), f"{label} diverged bitwise"


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("batch_size", [None, 3, 7])
def test_predict_batch_bitwise_across_backends(ensemble_model, seed, batch_size):
    """Random batches: every backend returns the reference's exact bytes."""
    model, _ = ensemble_model
    queries = build_synthetic_samples(17, seed=100 + seed)
    with use_backend("numpy"):
        reference = model.predict_batch(queries, batch_size=batch_size)
    for name in available_backends():
        with use_backend(name):
            _bitwise(
                reference,
                model.predict_batch(queries, batch_size=batch_size),
                f"predict_batch[{name}, bs={batch_size}]",
            )


@pytest.mark.parametrize("seed", [0, 1])
def test_predict_loop_bitwise_across_backends(single_model, seed):
    """The per-sample loop (predict without batching) is covered too."""
    model, _ = single_model
    queries = build_synthetic_samples(9, seed=200 + seed)
    with use_backend("numpy"):
        reference = model.predict(queries)
    with use_backend("optimized"):
        _bitwise(reference, model.predict(queries), "predict loop")


def test_estimate_many_bitwise_across_backends(ensemble_model):
    """Whole-service equivalence, fresh and through the InferenceCache."""
    model, samples = ensemble_model
    queries = samples[24:]
    requests = [EstimateRequest.from_sample(s) for s in queries]

    with PowerEstimationService(
        model, batch_size=5, runtime=RuntimeConfig(backend="numpy")
    ) as reference_service:
        reference = [r.power for r in reference_service.estimate_many(requests)]
        cached_reference = [r.power for r in reference_service.estimate_many(requests)]
    assert reference == cached_reference

    with PowerEstimationService(
        model, batch_size=5, runtime=RuntimeConfig(backend="optimized")
    ) as service:
        fresh = service.estimate_many(requests)
        assert [r.power for r in fresh] == reference
        assert not any(r.cached_prediction for r in fresh)
        # Second pass: served from the InferenceCache, still identical.
        warm = service.estimate_many(requests)
        assert all(r.cached_prediction for r in warm)
        assert [r.power for r in warm] == reference
        assert service.metrics.backend == "optimized"
        assert service.runtime_stats()["backend"]["active"] == "optimized"


@pytest.mark.parametrize("backend", ["numpy", "optimized"])
def test_pooled_forward_bitwise_through_service(ensemble_model, backend):
    """The pooled path (shared-memory forward shards) matches serial bytes."""
    model, samples = ensemble_model
    queries = samples[24:]
    requests = [EstimateRequest.from_sample(s) for s in queries]

    with PowerEstimationService(
        model, batch_size=6, runtime=RuntimeConfig(backend="numpy")
    ) as serial_service:
        reference = [r.power for r in serial_service.estimate_many(requests)]

    runtime = RuntimeConfig(backend=backend, forward_workers=2)
    with PowerEstimationService(model, batch_size=6, runtime=runtime) as service:
        pooled = [r.power for r in service.estimate_many(requests)]
        assert np.array(pooled).tobytes() == np.array(reference).tobytes()
        snapshot = service.metrics.snapshot()
        assert snapshot["pooled_predicted"] == len(requests)
        stats = service.runtime_stats()["forward_pool"]
        assert stats["designs"] == len(requests)
        assert stats["shards"] >= 2


def test_tolerance_tier_contract(ensemble_model):
    """The numerical contract is explicit per backend instance.

    ``tolerance is None`` (every default backend) means bitwise — asserted
    with ``tobytes`` throughout this suite.  A non-``None`` ``(rtol, atol)``
    (only the explicit ``f32`` accelerator opt-in) relaxes the assertion to
    ``np.allclose`` at exactly the advertised tolerances — and nothing
    looser.
    """
    from repro.backend import NumpyBackend, OptimizedBackend, get_backend
    from repro.backend.optimized import F32_TOLERANCE

    model, _ = ensemble_model
    queries = build_synthetic_samples(13, seed=400)
    with use_backend("numpy"):
        reference = model.predict_batch(queries, batch_size=5)
    assert np.ptp(reference) > 1e-6  # non-vacuous: spread above clamp floor

    backends = [get_backend(name) for name in available_backends()]
    assert all(b.tolerance is None for b in backends)  # defaults are bitwise
    backends.append(OptimizedBackend(accel="f32"))
    assert backends[-1].tolerance == F32_TOLERANCE
    assert NumpyBackend().tolerance is None

    for backend in backends:
        with use_backend(backend):
            predictions = model.predict_batch(queries, batch_size=5)
        if backend.tolerance is None:
            _bitwise(reference, predictions, f"tolerance[{backend.name}]")
        else:
            rtol, atol = backend.tolerance
            assert np.allclose(predictions, reference, rtol=rtol, atol=atol), (
                f"{backend.name}/{backend.accelerator} broke its advertised "
                f"tolerance contract {backend.tolerance}"
            )


def test_env_selected_backend_reaches_service(monkeypatch):
    """$REPRO_BACKEND steers a service constructed without an explicit name."""
    monkeypatch.setenv("REPRO_BACKEND", "optimized")
    # The default may already be resolved for this process; the service path
    # resolves through RuntimeConfig.backend=None → env each construction.
    samples = build_synthetic_samples(30, seed=3)
    model = PowerGear(
        PowerGearConfig(
            target="dynamic",
            gnn=GNNConfig(hidden_dim=8, num_layers=1),
            training=TrainingConfig(epochs=2, batch_size=16),
            ensemble=None,
        )
    ).fit(samples[:24])
    service = PowerEstimationService(model)
    try:
        assert service.backend.name == "optimized"
        assert service.metrics.backend == "optimized"
    finally:
        service.close()
