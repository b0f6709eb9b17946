"""Wire (JSON) shapes of the service's response objects.

Lives beside the service — not in :mod:`repro.runtime.http` — because the
job subsystem serialises a finished job's ``result`` checkpoint with it, and
importing the HTTP server for a JSON shape would drag the whole asyncio
front end into the job runner's import graph.
"""

from __future__ import annotations

import math

__all__ = ["explore_report_to_json", "frontier_design_to_json"]


def frontier_design_to_json(design) -> dict:
    return {
        "kernel": design.kernel,
        "directives": design.directives,
        "latency_cycles": design.latency_cycles,
        # An exact-frontier design the explorer never sampled has no
        # prediction (NaN); null is its strict-JSON spelling.
        "predicted_power": (
            None if math.isnan(design.predicted_power) else design.predicted_power
        ),
        "measured_power": design.measured_power,
    }


def explore_report_to_json(report) -> dict:
    """The JSON shape of :class:`~repro.serve.service.ExploreReport`."""
    return {
        "kernel": report.kernel,
        "budget": report.budget,
        "adrs": report.adrs,
        "num_candidates": report.num_candidates,
        "num_sampled": report.result.num_sampled,
        "elapsed_seconds": report.elapsed_seconds,
        "frontier": [frontier_design_to_json(design) for design in report.frontier],
    }
