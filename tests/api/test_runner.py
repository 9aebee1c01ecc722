"""Tests for BatchRunner and RunRecord (serial and parallel execution)."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.experiments.base import ExperimentConfig
from repro.experiments.figure_data import SCHEME_SPECS
from repro.experiments import figure_data
from repro.runner import BatchRunner, RunRecord, execute_scenario
from repro.scenario import ScenarioSpec, SchemeSpec
from repro.workloads.multiprogram import WorkloadRunner, generate_priority_workloads


def smoke_scenarios() -> list:
    """A small but non-trivial grid: 2 workloads x 2 schemes at smoke scale."""
    workloads = generate_priority_workloads(
        2, seed=7, benchmarks=["lbm", "spmv", "sad"]
    )[:2]
    schemes = [SCHEME_SPECS["fcfs"], SCHEME_SPECS["ppq_cs"]]
    return [
        ScenarioSpec.for_workload(workload, scheme, scale="smoke")
        for workload in workloads
        for scheme in schemes
    ]


class TestBatchRunner:
    def test_serial_and_parallel_results_are_identical(self):
        scenarios = smoke_scenarios()
        serial = BatchRunner(jobs=1).run(scenarios)
        parallel = BatchRunner(jobs=2).run(scenarios)
        assert len(serial) == len(parallel) == len(scenarios)
        for left, right in zip(serial, parallel):
            assert left.scenario == right.scenario
            assert left.result == right.result
            assert left.to_dict() == right.to_dict()

    def test_records_preserve_input_order(self):
        scenarios = smoke_scenarios()
        records = BatchRunner(jobs=1).run(scenarios)
        assert [record.scenario for record in records] == scenarios

    def test_records_are_json_serialisable(self):
        record = execute_scenario(smoke_scenarios()[0])
        payload = json.loads(record.to_json())
        assert payload["scenario"]["scale"] == "smoke"
        assert payload["metrics"]["stp"] > 0
        assert set(payload["process_times_us"]) == set(payload["metrics"]["ntt"])

    def test_jobs_zero_means_all_cpus(self):
        assert BatchRunner(jobs=0).jobs >= 1
        assert BatchRunner(jobs=None).jobs >= 1

    def test_empty_batch(self):
        assert BatchRunner(jobs=4).run([]) == []


class TestExperimentDataThroughBatchRunner:
    @pytest.fixture(scope="class")
    def tiny_config(self) -> ExperimentConfig:
        return ExperimentConfig(
            scale="smoke",
            process_counts=(2,),
            workloads_per_benchmark=1,
            workloads_per_count=2,
            benchmarks=("lbm", "spmv", "sad"),
        )

    def test_priority_collect_serial_matches_parallel(self, tiny_config):
        import dataclasses

        serial = figure_data.collect("priority", tiny_config, schemes=("fcfs", "npq"))
        parallel = figure_data.collect(
            "priority", dataclasses.replace(tiny_config, jobs=2), schemes=("fcfs", "npq")
        )
        assert serial.results.keys() == parallel.results.keys()
        for key, result in serial.results.items():
            assert parallel.results[key] == result

    def test_dss_collect_runs_through_batch_runner(self, tiny_config):
        recorded = []

        class RecordingBatchRunner(BatchRunner):
            def run(self, scenarios):
                records = super().run(scenarios)
                recorded.extend(records)
                return records

        data = figure_data.collect(
            "dss",
            tiny_config,
            schemes=("fcfs", "dss_cs"),
            batch_runner=RecordingBatchRunner(jobs=1),
        )
        assert recorded  # the grid really went through the BatchRunner
        assert all(isinstance(record, RunRecord) for record in recorded)
        assert len(data.results) == len(recorded)

    def test_duplicate_scheme_labels_rejected(self, tiny_config):
        duplicates = [SchemeSpec(policy="ppq"), SchemeSpec(policy="ppq")]
        with pytest.raises(ValueError, match="duplicate scheme labels"):
            figure_data.collect("priority", tiny_config, schemes=duplicates)

    def test_unknown_grid_rejected(self, tiny_config):
        with pytest.raises(ValueError, match="unknown grid 'fairness'"):
            figure_data.collect("fairness", tiny_config)

    def test_run_scenario_rejects_mismatched_context(self, tiny_config):
        runner = WorkloadRunner(scale=tiny_config.workload_scale())  # default config
        scenario = smoke_scenarios()[0]
        mismatched_scale = dataclasses.replace(scenario, scale="reduced")
        with pytest.raises(ValueError, match="does not match this runner's"):
            runner.run_scenario(mismatched_scale)
        mismatched_config = dataclasses.replace(
            scenario, config_overrides={"gpu": {"num_sms": 4}}
        )
        with pytest.raises(ValueError, match="config_overrides do not match"):
            runner.run_scenario(mismatched_config)
