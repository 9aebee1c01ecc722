"""Benchmarks: regenerate Figures 5 and 6 (priority workloads).

The two figures share the priority-workload simulations; the data collection
is the timed part and is benchmarked once, then both figures are derived and
their qualitative shape is asserted.
"""

from __future__ import annotations

import pytest
from conftest import run_once

from repro.experiments import figure5, figure6, figure_data


@pytest.fixture(scope="module")
def module_cache():
    return {}


def test_figure5(benchmark, experiment_config, module_cache):
    data = run_once(benchmark, figure_data.collect, "priority", experiment_config)
    module_cache["data"] = data
    result = figure5.run(experiment_config, data=data)
    averages = [row for row in result.row_dicts() if row["Group"] == "AVERAGE"]
    assert averages
    for row in averages:
        # Preemptive prioritisation helps the high-priority process and is at
        # least as good as non-preemptive prioritisation (Figure 5's shape).
        assert row["PPQ context switch"] >= 1.0
        assert row["PPQ context switch"] >= row["NPQ"] * 0.95


def test_figure6(benchmark, experiment_config, module_cache):
    data = module_cache.get("data")
    if data is None:
        data = figure_data.collect("priority", experiment_config)

    result = run_once(benchmark, figure6.run, experiment_config, data=data)
    rows = result.row_dicts()
    assert rows
    # Preemption costs some throughput relative to NPQ on average (>= ~1x).
    exclusive = [r for r in rows if r["Access"].startswith("exclusive")]
    assert exclusive
    for row in exclusive:
        assert row["PPQ context switch (x)"] >= 0.9
        assert row["PPQ draining (x)"] >= 0.9
