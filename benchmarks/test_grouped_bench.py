"""Grouped one-GEMM forward microbenchmark.

One measurement on a synthetic single-model workload (the grouped path is
member-count-independent, so a single model keeps the timings about the
kernels rather than the ensemble loop): the same ``predict_batch`` timed
with the per-relation loop (``REPRO_GROUPED_FORWARD=off``) and the grouped
one-GEMM path (``on``).  Bitwise equality of grouped-vs-loop is asserted
unconditionally; the speedup is reported, not gated.

The table lands in ``latest_results.txt`` and feeds the regression gate
(``baseline.json``: ``backend.grouped_forward.designs_per_s``).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from conftest import print_table
from repro.backend import active_backend
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
def test_grouped_relation_forward(benchmark, bench_scale, monkeypatch):
    hidden = max(bench_scale.hidden_dim, 64)
    train = _synthetic_samples(24, seed=11, min_nodes=20, max_nodes=30)
    queries = _synthetic_samples(GROUPED_QUERY_DESIGNS, seed=12)
    model = _fit_single(train, hidden)
    backend = active_backend()

    def timed(grouped: str):
        # monkeypatch restores the caller's setting afterwards: one CI leg
        # runs the whole suite under REPRO_GROUPED_FORWARD=off.
        monkeypatch.setenv(GROUPED_ENV_VAR, grouped)
        model.predict_batch(queries)  # warm (BLAS, relation memos)
        start = time.perf_counter()
        for _ in range(REPEATS):
            predictions = model.predict_batch(queries)
        return predictions, time.perf_counter() - start

    def run():
        loop_predictions, loop_seconds = timed("off")
        before = backend.stats.as_dict()
        grouped_predictions, grouped_seconds = timed("on")
        after = backend.stats.as_dict()
        return {
            "loop": (loop_predictions, loop_seconds),
            "grouped": (grouped_predictions, grouped_seconds),
            "grouped_matmuls": after["grouped_matmuls"] - before["grouped_matmuls"],
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    designs = REPEATS * GROUPED_QUERY_DESIGNS
    loop_predictions, loop_seconds = results["loop"]
    grouped_predictions, grouped_seconds = results["grouped"]
    grouped_speedup = loop_seconds / grouped_seconds

    print_table(
        f"Grouped relation forward (hidden {hidden}, {available_cpus()} "
        "usable cores)",
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
        ],
    )

    # Correctness invariants: always enforced.
    assert np.ptp(loop_predictions) > 1e-6  # non-vacuous above the clamp floor
    assert grouped_predictions.tobytes() == loop_predictions.tobytes(), (
        "grouped one-GEMM forward diverged bitwise from the per-relation loop"
    )
    assert results["grouped_matmuls"] > 0  # the grouped path genuinely ran
