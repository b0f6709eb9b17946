"""Table I (dataset-properties columns): #samples and average #nodes per kernel.

The paper reports ~480-530 design points per kernel with average graph sizes
of 137-447 nodes.  The benchmark regenerates the same two columns for the
configured scale (smaller by default); each run's table is appended to
``latest_results.txt`` next to this module for comparison with the paper's
values quoted above.
"""

from __future__ import annotations

from conftest import print_table
from repro.flow.evaluation import LeaveOneOutEvaluator


def test_table1_dataset_properties(benchmark, bench_dataset, bench_scale):
    evaluator = LeaveOneOutEvaluator(bench_dataset)

    def compute():
        return evaluator.dataset_properties()

    properties = benchmark.pedantic(compute, rounds=1, iterations=1)

    rows = []
    for kernel in bench_scale.kernels:
        entry = properties[kernel]
        rows.append([kernel, int(entry["num_samples"]), f"{entry['avg_nodes']:.0f}"])
    averages = [
        "Average",
        int(sum(p["num_samples"] for p in properties.values()) / len(properties)),
        f"{sum(p['avg_nodes'] for p in properties.values()) / len(properties):.0f}",
    ]
    rows.append(averages)
    print_table(
        "Table I (dataset properties): samples and average graph nodes per kernel",
        ["Dataset", "#Samples", "Avg. #Nodes"],
        rows,
    )

    assert all(p["num_samples"] > 0 for p in properties.values())
    assert all(p["avg_nodes"] > 5 for p in properties.values())
