"""Tests for the Figure 5/6/7/8 experiment runners (tiny configurations).

These use a deliberately tiny configuration (two benchmarks, two process
counts, one workload each) so the whole module runs in tens of seconds; the
assertions check structure and the most robust qualitative properties, not
the paper's magnitudes.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.experiments import figure5, figure6, figure7, figure8, figure_data
from repro.experiments.base import ExperimentConfig


@pytest.fixture(scope="module")
def tiny_config() -> ExperimentConfig:
    return dataclasses.replace(
        ExperimentConfig.smoke(),
        process_counts=(2, 4),
        workloads_per_benchmark=1,
        workloads_per_count=2,
        benchmarks=("lbm", "spmv", "sgemm", "tpacf"),
    )


@pytest.fixture(scope="module")
def priority_cache(tiny_config):
    return figure_data.collect("priority", tiny_config)


@pytest.fixture(scope="module")
def dss_cache(tiny_config):
    return figure_data.collect("dss", tiny_config)


class TestPriorityData:
    def test_every_workload_and_scheme_present(self, tiny_config, priority_cache):
        for count in tiny_config.process_counts:
            specs = priority_cache.workloads[count]
            assert len(specs) == len(tiny_config.benchmarks)
            for spec in specs:
                for scheme in figure_data.GRIDS["priority"]:
                    assert (count, spec.workload_id, scheme) in priority_cache.results

    def test_every_benchmark_takes_the_high_priority_role(self, tiny_config, priority_cache):
        for count in tiny_config.process_counts:
            high = {s.high_priority_application for s in priority_cache.workloads[count]}
            assert high == set(tiny_config.benchmarks)


class TestFigure5:
    def test_rows_and_shape(self, tiny_config, priority_cache):
        result = figure5.run(tiny_config, data=priority_cache)
        rows = result.row_dicts()
        assert rows, "figure 5 produced no rows"
        average_rows = [r for r in rows if r["Group"] == "AVERAGE"]
        assert len(average_rows) == len(tiny_config.process_counts)
        for row in average_rows:
            # Preemptive prioritisation must help the high-priority process
            # at least as much as non-preemptive prioritisation, and both
            # must not hurt it.
            assert row["PPQ context switch"] >= row["NPQ"] * 0.95
            assert row["PPQ context switch"] >= 1.0
            assert row["NPQ"] >= 0.9

    def test_improvements_recorded_per_group(self, tiny_config, priority_cache):
        result = figure5.run(tiny_config, data=priority_cache)
        improvements = result.series["improvements"]
        assert set(improvements) == {"LONG", "MEDIUM", "SHORT", "AVERAGE"}


class TestFigure6:
    def test_degradation_rows(self, tiny_config, priority_cache):
        result = figure6.run(tiny_config, data=priority_cache)
        rows = result.row_dicts()
        assert len(rows) == 2 * len(tiny_config.process_counts)
        for row in rows:
            assert row["PPQ context switch (x)"] > 0
            assert row["PPQ draining (x)"] > 0


class TestFigure7:
    def test_panels_present(self, tiny_config, dss_cache):
        result = figure7.run(tiny_config, data=dss_cache)
        panels = {row["Panel"] for row in result.row_dicts()}
        assert panels == {"7a NTT improvement", "7b fairness improvement", "7c STP degradation"}

    def test_fairness_improves_with_dss(self, tiny_config, dss_cache):
        result = figure7.run(tiny_config, data=dss_cache)
        fairness_rows = [
            row for row in result.row_dicts() if row["Panel"] == "7b fairness improvement"
        ]
        assert fairness_rows
        # DSS equal sharing should not make fairness worse on average.
        for row in fairness_rows:
            assert row["DSS context switch (x)"] >= 0.95

    def test_average_ntt_not_degraded(self, tiny_config, dss_cache):
        result = figure7.run(tiny_config, data=dss_cache)
        average_rows = [
            row
            for row in result.row_dicts()
            if row["Panel"] == "7a NTT improvement" and row["Group"] == "AVERAGE"
        ]
        assert average_rows
        for row in average_rows:
            assert row["DSS context switch (x)"] >= 0.9


class TestFigure8:
    def test_sorted_curves(self, tiny_config, dss_cache):
        result = figure8.run(tiny_config, data=dss_cache)
        curves = result.series["curves"]
        for count in tiny_config.process_counts:
            for scheme, values in curves[count].items():
                assert values == sorted(values)
                assert len(values) == tiny_config.workloads_per_count
        fractions = result.series["improved_fraction"]
        for count in tiny_config.process_counts:
            for value in fractions[count].values():
                assert 0.0 <= value <= 1.0
