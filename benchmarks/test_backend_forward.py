"""Pooled packed mega-graph forward microbenchmark.

Serial in-process ``predict_batch`` (one packed forward per ensemble member)
vs the :class:`~repro.runtime.pool.ForwardPool` sharding the ensemble's
members across one worker process per usable core, clamped to 2..4, on
shared-memory weights.  Each worker pins its BLAS to one thread, so the
workers do not compete for cores with each other's GEMM threads.  Bitwise
equality is asserted unconditionally; the >1x speedup contract is enforced
only on non-CI machines with >= 4 usable cores (the same gate as the
featurisation-pool benchmark).

The table lands in ``latest_results.txt`` and feeds the regression gate
(``baseline.json``: ``runtime.forward_pool.*``).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from conftest import print_table
from gating import gate_reason, wall_clock_enforced
from repro.flow.powergear import PowerGear, PowerGearConfig
from repro.gnn.config import GNNConfig
from repro.gnn.ensemble import EnsembleConfig
from repro.gnn.trainer import TrainingConfig
from repro.graph.dataset import GraphSample
from repro.graph.hetero_graph import HeteroGraph
from repro.runtime import ForwardPool, available_cpus

#: Pool size cap, and the core count at which the >1x assert is enforced.
MAX_FORWARD_WORKERS = 4
FORWARD_WORKERS = max(2, min(MAX_FORWARD_WORKERS, available_cpus()))
ENSEMBLE_FOLDS = 8
ENSEMBLE_SEEDS = (0, 1)  # 16 members
QUERY_DESIGNS = 64
REPEATS = 3


def _synthetic_samples(count: int, seed: int, min_nodes: int = 50, max_nodes: int = 90):
    """Random power graphs big enough that the forward dominates overheads."""
    rng = np.random.default_rng(seed)
    samples = []
    for index in range(count):
        power = 0.1 + float(rng.random()) * 0.5
        num_nodes = int(rng.integers(min_nodes, max_nodes))
        num_edges = 3 * num_nodes
        graph = HeteroGraph(
            node_features=rng.random((num_nodes, 6)),
            edge_index=np.stack(
                [
                    rng.integers(0, num_nodes, num_edges),
                    rng.integers(0, num_nodes, num_edges),
                ]
            ),
            edge_features=rng.random((num_edges, 4)) * power,
            edge_types=rng.integers(0, 4, num_edges),
            metadata=rng.random(5) * power,
            node_is_arithmetic=rng.random(num_nodes) > 0.5,
        )
        samples.append(
            GraphSample(
                graph=graph,
                kernel="synthetic",
                directives=f"point{index}",
                total_power=power + 0.6,
                dynamic_power=power,
                static_power=0.6,
                latency_cycles=100 + index,
            )
        )
    return samples


def _fit_ensemble(samples, hidden: int) -> PowerGear:
    # One epoch per member: prediction throughput does not depend on how
    # converged the weights are, only on the shapes, so training is token.
    return PowerGear(
        PowerGearConfig(
            target="dynamic",
            gnn=GNNConfig(hidden_dim=hidden, num_layers=3),
            training=TrainingConfig(epochs=1, batch_size=16),
            ensemble=EnsembleConfig(folds=ENSEMBLE_FOLDS, seeds=ENSEMBLE_SEEDS),
        )
    ).fit(samples)


@pytest.mark.benchmark
@pytest.mark.slow
def test_backend_packed_forward(benchmark, bench_scale):
    hidden = max(bench_scale.hidden_dim, 64)
    train = _synthetic_samples(24, seed=1, min_nodes=20, max_nodes=30)
    queries = _synthetic_samples(QUERY_DESIGNS, seed=2)
    model = _fit_ensemble(train, hidden)
    num_members = len(model.ensemble.members)

    def run():
        model.predict_batch(queries)  # warm (BLAS, relation memos)
        serial_start = time.perf_counter()
        for _ in range(REPEATS):
            serial_predictions = model.predict_batch(queries)
        serial_seconds = time.perf_counter() - serial_start

        with ForwardPool(model, num_workers=FORWARD_WORKERS) as pool:
            pool.predict_batch(queries)  # warm: forks + shared-segment attach
            pooled_start = time.perf_counter()
            for _ in range(REPEATS):
                pooled_predictions = pool.predict_batch(queries)
            pooled_seconds = time.perf_counter() - pooled_start
            shared_bytes = pool.stats.shared_bytes

        return {
            "serial_predictions": serial_predictions,
            "serial_seconds": serial_seconds,
            "pooled_predictions": pooled_predictions,
            "pooled_seconds": pooled_seconds,
            "shared_bytes": shared_bytes,
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    designs = REPEATS * QUERY_DESIGNS
    serial_seconds = results["serial_seconds"]
    pooled_seconds = results["pooled_seconds"]
    pool_speedup = serial_seconds / pooled_seconds
    pool_enforced = wall_clock_enforced(min_cores=MAX_FORWARD_WORKERS)
    print_table(
        f"Pooled packed forward ({num_members} members x{FORWARD_WORKERS} workers, "
        f"{results['shared_bytes'] / 1024:.0f} KiB shared weights; >1x assert "
        f"{gate_reason(min_cores=MAX_FORWARD_WORKERS)})",
        ["Path", "Designs", "Seconds", "Designs/s", "Speedup"],
        [
            [
                "serial",
                str(designs),
                f"{serial_seconds:.3f}",
                f"{designs / serial_seconds:.1f}",
                "1.0x",
            ],
            [
                f"pool x{FORWARD_WORKERS}",
                str(designs),
                f"{pooled_seconds:.3f}",
                f"{designs / pooled_seconds:.1f}",
                f"{pool_speedup:.2f}x",
            ],
        ],
    )

    # Correctness invariant: always enforced, bitwise.
    assert results["pooled_predictions"].tobytes() == results[
        "serial_predictions"
    ].tobytes(), "pooled forward diverged bitwise from serial prediction"

    if pool_enforced:
        assert pool_speedup > 1.0, (
            f"pooled forward is only {pool_speedup:.2f}x serial with "
            f"{FORWARD_WORKERS} workers for {num_members} members on "
            f"{available_cpus()} cores"
        )
