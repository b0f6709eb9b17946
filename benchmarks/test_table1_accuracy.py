"""Table I (accuracy columns): total and dynamic power estimation error.

Regenerates, per held-out kernel, the MAPE of

* total power:   Vivado (calibrated), HL-Pow, PowerGear
* dynamic power: the GNN baselines (GCN, GraphSAGE, GraphConv, GINE), HL-Pow
  and PowerGear

under the paper's leave-one-application-out protocol.  The paper's reference
row (its Table I averages): Vivado 21.82 / HL-Pow 3.79 / PowerGear 3.60 for
total power, and GCN 12.94 / GraphSage 11.91 / GraphConv 11.01 / GINE 11.17 /
HL-Pow 12.67 / PowerGear 8.81 for dynamic power.  Absolute numbers differ on
this simulated substrate; each run's tables are appended to
``latest_results.txt``.
"""

from __future__ import annotations

import numpy as np

from conftest import evaluation_config, print_table
from repro.flow.evaluation import LeaveOneOutEvaluator

TOTAL_POWER_MODELS = ["vivado", "hlpow", "powergear"]
DYNAMIC_POWER_MODELS = ["gcn", "graphsage", "graphconv", "gine", "hlpow", "powergear"]


def _rows_from_results(kernels, results):
    rows = []
    for kernel in kernels:
        rows.append(
            [kernel] + [f"{results[m].per_kernel_error[kernel]:.2f}" for m in results]
        )
    rows.append(["Average"] + [f"{results[m].average_error:.2f}" for m in results])
    return rows


def test_table1_total_power_error(benchmark, bench_dataset, bench_scale):
    config = evaluation_config(bench_scale, target="total")
    evaluator = LeaveOneOutEvaluator(bench_dataset, config)

    def run():
        return evaluator.evaluate_models(TOTAL_POWER_MODELS)

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "Table I: error of total power estimation (%)",
        ["Dataset"] + TOTAL_POWER_MODELS,
        _rows_from_results(bench_scale.kernels, results),
    )
    for result in results.values():
        assert np.isfinite(result.average_error)
    # The learned estimators must clearly beat the uncalibrated trivial bound
    # and stay within a sane range on the simulated substrate.
    assert results["powergear"].average_error < 35.0
    assert results["hlpow"].average_error < 35.0


def test_table1_dynamic_power_error(benchmark, bench_dataset, bench_scale):
    config = evaluation_config(bench_scale, target="dynamic")
    evaluator = LeaveOneOutEvaluator(bench_dataset, config)

    def run():
        return evaluator.evaluate_models(DYNAMIC_POWER_MODELS)

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "Table I: error of dynamic power estimation (%)",
        ["Dataset"] + DYNAMIC_POWER_MODELS,
        _rows_from_results(bench_scale.kernels, results),
    )
    for result in results.values():
        assert np.isfinite(result.average_error)
    # Edge-centric PowerGear should at least be competitive with the pure
    # node-centric baselines on dynamic power (the paper's central claim).
    node_centric_best = min(
        results["gcn"].average_error, results["graphsage"].average_error
    )
    assert results["powergear"].average_error < node_centric_best * 1.5
