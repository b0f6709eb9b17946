"""Grouped one-GEMM forward and the pooled forward.

Two contracts under test, both bitwise:

* **Grouped kernels** — ``grouped_matmul`` / ``scatter_add_grouped`` equal
  the historical per-relation loop bit for bit, at the kernel level and
  through the full ``predict_batch`` path (``REPRO_GROUPED_FORWARD`` toggles
  the model-side path).
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

from repro.backend import ArrayBackend, active_backend
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


def test_grouped_kernels_match_per_relation_loop_bitwise():
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

    backend = ArrayBackend()
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


def test_grouped_forward_matches_relation_loop_bitwise(ensemble_model, monkeypatch):
    """End-to-end: ``REPRO_GROUPED_FORWARD`` on/off is invisible, tobytes.

    Runs each mode twice (fresh pack + warm second batch) so the memoised
    relation bookkeeping is exercised, and checks the grouped-op counters
    to prove the grouped path genuinely ran rather than silently falling
    back to the loop.
    """
    model, samples = ensemble_model
    queries = samples[28:]
    backend = active_backend()

    monkeypatch.setenv(GROUPED_ENV_VAR, "off")
    loop = model.predict_batch(queries, batch_size=6)
    loop_again = model.predict_batch(queries, batch_size=6)
    _assert_spread(loop)
    assert loop_again.tobytes() == loop.tobytes()

    before = backend.stats.as_dict()
    monkeypatch.setenv(GROUPED_ENV_VAR, "on")
    grouped = model.predict_batch(queries, batch_size=6)
    grouped_again = model.predict_batch(queries, batch_size=6)
    after = backend.stats.as_dict()

    assert grouped.tobytes() == loop.tobytes()
    assert grouped_again.tobytes() == loop.tobytes()
    assert after["grouped_matmuls"] > before["grouped_matmuls"]
    assert after["grouped_scatter_adds"] > before["grouped_scatter_adds"]


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
