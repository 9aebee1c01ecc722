"""Benchmarks: regenerate Figures 7 and 8 (DSS equal sharing)."""

from __future__ import annotations

import pytest
from conftest import run_once

from repro.experiments import figure7, figure8, figure_data


@pytest.fixture(scope="module")
def module_cache():
    return {}


def test_figure7(benchmark, experiment_config, module_cache):
    data = run_once(benchmark, figure_data.collect, "dss", experiment_config)
    module_cache["data"] = data
    result = figure7.run(experiment_config, data=data)
    rows = result.row_dicts()
    fairness_rows = [r for r in rows if r["Panel"] == "7b fairness improvement"]
    assert fairness_rows
    # Equal sharing improves (or at least does not hurt) fairness on average.
    for row in fairness_rows:
        assert row["DSS context switch (x)"] >= 0.95
    average_ntt = [
        r for r in rows if r["Panel"] == "7a NTT improvement" and r["Group"] == "AVERAGE"
    ]
    assert average_ntt
    for row in average_ntt:
        assert row["DSS context switch (x)"] >= 0.9


def test_figure8(benchmark, experiment_config, module_cache):
    data = module_cache.get("data")
    if data is None:
        data = figure_data.collect("dss", experiment_config)
    result = run_once(benchmark, figure8.run, experiment_config, data=data)
    curves = result.series["curves"]
    for count in experiment_config.process_counts:
        for values in curves[count].values():
            assert values == sorted(values)
    fractions = result.series["improved_fraction"]
    # The fraction of DSS-improved workloads does not shrink as the process
    # count grows (Figure 8's qualitative trend).
    counts = sorted(fractions)
    assert fractions[counts[-1]]["dss_cs"] >= fractions[counts[0]]["dss_cs"] - 0.34
