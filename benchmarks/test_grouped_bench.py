"""Grouped one-GEMM forward microbenchmark.

One measurement on a synthetic single-model workload (the grouped path is
member-count-independent, so a single model keeps the timings about the
kernels rather than the ensemble loop): the same ``predict_batch`` timed
with the per-relation loop (``REPRO_GROUPED_FORWARD=off``), the grouped
one-GEMM path (``on``), and the grouped path on the ``f32`` accelerator
tier.  Bitwise equality of grouped-vs-loop and the f32 tier's
``F32_TOLERANCE`` contract are asserted unconditionally; the >=1.5x
grouped+f32 speedup floor is a wall-clock assertion gated by the shared CI
policy.

The table lands in ``latest_results.txt`` and feeds the regression gate
(``baseline.json``: ``backend.grouped_forward.*``).
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from conftest import print_table
from gating import gate_reason, wall_clock_enforced
from repro.backend import OptimizedBackend, get_backend, use_backend
from repro.backend.optimized import F32_TOLERANCE
from repro.flow.powergear import PowerGear, PowerGearConfig
from repro.gnn.base import GROUPED_ENV_VAR
from repro.gnn.config import GNNConfig
from repro.gnn.trainer import TrainingConfig
from repro.runtime import available_cpus
from test_backend_forward import _synthetic_samples

REPEATS = 3
GROUPED_QUERY_DESIGNS = 64


def _fit_single(samples, hidden: int) -> PowerGear:
    # One epoch: throughput depends on shapes, not convergence.
    return PowerGear(
        PowerGearConfig(
            target="dynamic",
            gnn=GNNConfig(hidden_dim=hidden, num_layers=3),
            training=TrainingConfig(epochs=1, batch_size=16),
            ensemble=None,
        )
    ).fit(samples)


@pytest.mark.benchmark
@pytest.mark.slow
def test_grouped_relation_forward(benchmark, bench_scale):
    hidden = max(bench_scale.hidden_dim, 64)
    train = _synthetic_samples(24, seed=11, min_nodes=20, max_nodes=30)
    queries = _synthetic_samples(GROUPED_QUERY_DESIGNS, seed=12)
    model = _fit_single(train, hidden)
    optimized = get_backend("optimized")
    f32 = OptimizedBackend(accel="f32")

    def timed(backend, grouped: str):
        os.environ[GROUPED_ENV_VAR] = grouped
        try:
            with use_backend(backend):
                model.predict_batch(queries)  # warm (workspaces, caches)
                start = time.perf_counter()
                for _ in range(REPEATS):
                    predictions = model.predict_batch(queries)
                return predictions, time.perf_counter() - start
        finally:
            os.environ.pop(GROUPED_ENV_VAR, None)

    def run():
        loop_predictions, loop_seconds = timed(optimized, "off")
        before = optimized.stats.as_dict()
        grouped_predictions, grouped_seconds = timed(optimized, "on")
        after = optimized.stats.as_dict()
        f32_predictions, f32_seconds = timed(f32, "on")
        return {
            "loop": (loop_predictions, loop_seconds),
            "grouped": (grouped_predictions, grouped_seconds),
            "f32": (f32_predictions, f32_seconds),
            "grouped_matmuls": after["grouped_matmuls"] - before["grouped_matmuls"],
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    designs = REPEATS * GROUPED_QUERY_DESIGNS
    loop_predictions, loop_seconds = results["loop"]
    grouped_predictions, grouped_seconds = results["grouped"]
    f32_predictions, f32_seconds = results["f32"]
    grouped_speedup = loop_seconds / grouped_seconds
    f32_speedup = loop_seconds / f32_seconds

    enforced = wall_clock_enforced()
    print_table(
        f"Grouped relation forward (hidden {hidden}, {available_cpus()} "
        f"usable cores; >=1.5x grouped+f32 assert {gate_reason()})",
        ["Path", "Designs", "Seconds", "Designs/s", "Speedup"],
        [
            [
                "loop",
                str(designs),
                f"{loop_seconds:.3f}",
                f"{designs / loop_seconds:.1f}",
                "1.0x",
            ],
            [
                "grouped",
                str(designs),
                f"{grouped_seconds:.3f}",
                f"{designs / grouped_seconds:.1f}",
                f"{grouped_speedup:.2f}x",
            ],
            [
                "grouped+f32",
                str(designs),
                f"{f32_seconds:.3f}",
                f"{designs / f32_seconds:.1f}",
                f"{f32_speedup:.2f}x",
            ],
        ],
    )

    # Correctness invariants: always enforced.
    assert np.ptp(loop_predictions) > 1e-6  # non-vacuous above the clamp floor
    assert grouped_predictions.tobytes() == loop_predictions.tobytes(), (
        "grouped one-GEMM forward diverged bitwise from the per-relation loop"
    )
    assert results["grouped_matmuls"] > 0  # the grouped path genuinely ran
    rtol, atol = F32_TOLERANCE
    assert np.allclose(f32_predictions, loop_predictions, rtol=rtol, atol=atol), (
        "f32 accelerator tier broke its advertised tolerance contract"
    )

    if enforced:
        assert f32_speedup >= 1.5, (
            f"grouped+f32 forward is only {f32_speedup:.2f}x the per-relation "
            "loop (contract: >= 1.5x)"
        )
