"""Grouped one-GEMM forward, the tolerance tier and the pooled forward.

Three contracts under test, all bitwise unless explicitly relaxed:

* **Grouped kernels** — ``grouped_matmul`` / ``scatter_add_grouped`` equal
  the historical per-relation loop bit for bit, at the kernel level and
  through the full ``predict_batch`` path (``REPRO_GROUPED_FORWARD`` toggles
  the model-side path; both backends must agree with the loop exactly).
* **Tolerance tier** — only the explicit ``f32`` accelerator opt-in may
  advertise a non-``None`` ``tolerance``; its predictions stay within the
  advertised ``(rtol, atol)`` of the bitwise reference, and its casts are
  confined to inference forward scopes (training math stays exact f64).
* **Pooled forward** — packed batches ride shared array bundles, and the
  member-sharded pooled forward stays bitwise-identical to serial across a
  real SIGKILL of a forward worker mid-service.
"""

from __future__ import annotations

import os
import pickle
import signal
import time

import numpy as np
import pytest

from repro.backend import NumpyBackend, OptimizedBackend, get_backend, use_backend
from repro.backend.optimized import F32_TOLERANCE
from repro.flow.powergear import PowerGear, PowerGearConfig
from repro.gnn.base import GROUPED_ENV_VAR
from repro.gnn.config import GNNConfig
from repro.gnn.ensemble import EnsembleConfig
from repro.gnn.trainer import TrainingConfig
from repro.runtime import RuntimeConfig
from repro.runtime.shm import SharedArrayBundle, attach_array_bundle
from repro.serve import EstimateRequest, PowerEstimationService

from test_serve_service import build_synthetic_samples


@pytest.fixture(scope="module")
def ensemble_model():
    samples = build_synthetic_samples(40, seed=33)
    model = PowerGear(
        PowerGearConfig(
            target="dynamic",
            gnn=GNNConfig(hidden_dim=10, num_layers=2),
            training=TrainingConfig(epochs=3, batch_size=16),
            ensemble=EnsembleConfig(folds=2, seeds=(0, 1)),  # 4 members
        )
    ).fit(samples[:28])
    return model, samples


def _assert_spread(predictions: np.ndarray) -> None:
    """Guard against vacuous comparisons: everything clamped to the 1e-9
    floor would make any two prediction vectors trivially equal."""
    assert np.ptp(predictions) > 1e-6


# ------------------------------------------------------------ grouped kernels


@pytest.mark.parametrize("backend_cls", [NumpyBackend, OptimizedBackend])
def test_grouped_kernels_match_per_relation_loop_bitwise(backend_cls):
    """Kernel-level contract: grouped ops == the per-relation loop, tobytes.

    The layout mirrors what ``GraphBatch.relation_groups`` produces —
    relation-major row blocks delimited by a cumulative offsets vector —
    with one relation deliberately empty (the loop's ``continue`` case).
    """
    rng = np.random.default_rng(7)
    relations, d_in, d_out, edges, nodes = 7, 19, 13, 211, 37
    rel = rng.integers(0, relations, size=edges)
    rel[rel == 3] = 4  # force relation 3 empty
    order = np.argsort(rel, kind="stable")
    counts = np.bincount(rel[order], minlength=relations)
    offsets = np.zeros(relations + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    values = rng.standard_normal((edges, d_in))
    weights = rng.standard_normal((relations, d_in, d_out))
    destinations = np.sort(rng.integers(0, nodes, size=edges))

    backend = backend_cls()
    grouped = backend.grouped_matmul(values, weights, offsets)
    expected = np.empty((edges, d_out))
    for relation in range(relations):
        lo, hi = int(offsets[relation]), int(offsets[relation + 1])
        if lo == hi:
            continue
        expected[lo:hi] = values[lo:hi] @ weights[relation]
    assert grouped.tobytes() == expected.tobytes()

    scattered = backend.scatter_add_grouped(grouped, destinations, offsets, nodes)
    aggregated = None
    for relation in range(relations):
        lo, hi = int(offsets[relation]), int(offsets[relation + 1])
        if lo == hi:
            continue
        summed = backend.scatter_add(grouped[lo:hi], destinations[lo:hi], nodes)
        aggregated = summed if aggregated is None else aggregated + summed
    assert scattered.tobytes() == aggregated.tobytes()

    # Degenerate all-empty layout: zeros, same dtype/shape as the loop's.
    empty = backend.scatter_add_grouped(
        grouped[:0], destinations[:0], np.zeros(relations + 1, dtype=np.int64), nodes
    )
    assert empty.shape == (nodes, d_out)
    assert not empty.any()


@pytest.mark.parametrize("backend_name", ["numpy", "optimized"])
def test_grouped_forward_matches_relation_loop_bitwise(
    backend_name, ensemble_model, monkeypatch
):
    """End-to-end: ``REPRO_GROUPED_FORWARD`` on/off is invisible, tobytes.

    Runs each mode twice (fresh pack + warm second batch) so the memoised
    relation bookkeeping and the optimized backend's identity-keyed operator
    caches are both exercised, and checks the backend's grouped-op counters
    to prove the grouped path genuinely ran rather than silently falling
    back to the loop.
    """
    model, samples = ensemble_model
    queries = samples[28:]
    backend = get_backend(backend_name)

    monkeypatch.setenv(GROUPED_ENV_VAR, "off")
    with use_backend(backend):
        loop = model.predict_batch(queries, batch_size=6)
        loop_again = model.predict_batch(queries, batch_size=6)
    _assert_spread(loop)
    assert loop_again.tobytes() == loop.tobytes()

    before = backend.stats.as_dict()
    monkeypatch.setenv(GROUPED_ENV_VAR, "on")
    with use_backend(backend):
        grouped = model.predict_batch(queries, batch_size=6)
        grouped_again = model.predict_batch(queries, batch_size=6)
    after = backend.stats.as_dict()

    assert grouped.tobytes() == loop.tobytes()
    assert grouped_again.tobytes() == loop.tobytes()
    assert after["grouped_matmuls"] > before["grouped_matmuls"]
    assert after["grouped_scatter_adds"] > before["grouped_scatter_adds"]


# ------------------------------------------------------------- tolerance tier


def test_only_the_f32_opt_in_advertises_a_tolerance():
    assert NumpyBackend().tolerance is None
    assert OptimizedBackend().tolerance is None
    f32 = OptimizedBackend(accel="f32")
    assert f32.accelerator == "f32"
    assert f32.tolerance == F32_TOLERANCE


def test_f32_casts_are_confined_to_forward_scopes():
    """Outside a forward scope (i.e. on the training path) the f32 tier is
    inert: kernels stay exact float64, bitwise equal to the reference."""
    rng = np.random.default_rng(11)
    a = rng.standard_normal((23, 17))
    b = rng.standard_normal((17, 9))
    f32 = OptimizedBackend(accel="f32")
    outside = f32.matmul(a, b)
    assert outside.dtype == np.float64
    assert outside.tobytes() == (a @ b).tobytes()
    with f32.forward_scope():
        inside = np.asarray(f32.matmul(a, b), dtype=np.float64)
    assert inside.dtype == np.float64
    assert inside.tobytes() != outside.tobytes()  # the cast really engaged
    rtol, atol = F32_TOLERANCE
    assert np.allclose(inside, outside, rtol=rtol, atol=atol)


def test_f32_predictions_stay_within_the_advertised_tolerance(ensemble_model):
    model, samples = ensemble_model
    queries = samples[28:]
    with use_backend("numpy"):
        reference = model.predict_batch(queries, batch_size=6)
    _assert_spread(reference)
    with use_backend(OptimizedBackend(accel="f32")):
        accel = model.predict_batch(queries, batch_size=6)
    rtol, atol = F32_TOLERANCE
    assert np.allclose(accel, reference, rtol=rtol, atol=atol)
    # The tier is a genuine relaxation: with spread this far above the clamp
    # floor, single-precision round-off is visible — NOT bitwise.
    assert accel.tobytes() != reference.tobytes()


# ------------------------------------------------------- shared array bundles


def test_shared_array_bundle_roundtrip_and_alignment():
    rng = np.random.default_rng(3)
    arrays = {
        "node_features": rng.standard_normal((21, 5)),
        "edge_index": rng.integers(0, 21, size=(2, 33)).astype(np.int64),
        "edge_types": rng.integers(0, 4, size=33).astype(np.int64),
        "odd_bytes": rng.standard_normal(7),  # 56 bytes: exercises padding
        "flags": rng.integers(0, 2, size=9).astype(np.bool_),
    }
    bundle = SharedArrayBundle.create(arrays)
    try:
        spec = pickle.loads(pickle.dumps(bundle.spec))  # rides in task pickles
        assert spec.fields == bundle.spec.fields
        shm, views = attach_array_bundle(spec)
        try:
            for name, array in arrays.items():
                view = views[name]
                assert view.shape == array.shape
                assert view.dtype == array.dtype
                assert view.tobytes() == array.tobytes()
                assert not view.flags.writeable
                # 16-byte field alignment: BLAS-friendly views, no copies.
                assert view.__array_interface__["data"][0] % 16 == 0
        finally:
            views.clear()
            del view
            shm.close()
    finally:
        bundle.unlink()
        bundle.unlink()  # idempotent owner-side teardown


# ---------------------------------------------------------- pooled forward


def test_service_recovers_sigkilled_forward_worker_bitwise(ensemble_model):
    """Acceptance: a real SIGKILL of a member-sharding forward worker is a
    blip — the supervisor restarts the pool, the batch retries pooled, and
    the recovered predictions are bitwise-identical to serial."""
    model, samples = ensemble_model
    queries = samples[28:]
    requests = [EstimateRequest.from_sample(s) for s in queries]
    with use_backend("numpy"):
        reference = model.predict_batch(queries, batch_size=len(queries))

    def powers(responses) -> bytes:
        return np.array([r.power for r in responses]).tobytes()

    runtime = RuntimeConfig(forward_workers=2, pool_restart_backoff_s=0.01)
    with PowerEstimationService(
        model, batch_size=len(queries), runtime=runtime
    ) as service:
        first = service.estimate_many(requests)
        assert powers(first) == reference.tobytes()
        assert service.metrics.snapshot()["pooled_predicted"] == len(queries)

        supervisor = service._forward_supervisor
        assert supervisor is not None
        executor = supervisor._pools[supervisor._generation]._pool
        os.kill(next(iter(executor._processes)), signal.SIGKILL)
        # Deterministic: the executor's manager thread watches worker
        # sentinels; wait for it to observe the death so the next batch
        # reliably hits the broken pool instead of racing the detection.
        deadline = time.time() + 30
        while not executor._broken and time.time() < deadline:
            time.sleep(0.01)
        assert executor._broken

        service.cache.clear()
        second = service.estimate_many(requests)
        assert powers(second) == reference.tobytes()

        snapshot = service.metrics.snapshot()
        assert snapshot["pool_restarts"] == 1
        assert snapshot["pooled_errors"] == 1  # the kill, visible
        stats = service.runtime_stats()["forward_pool"]
        assert stats["member_forwards"] == 2 * len(model.ensemble.members)
        assert stats["shared_batch_bytes"] > 0
        assert stats["supervisor"]["restarts"] == 1
        assert stats["supervisor"]["state"] == "ok"
        assert stats["supervisor"]["retried_batches"] == 1
        assert service.health()["status"] == "ok"
