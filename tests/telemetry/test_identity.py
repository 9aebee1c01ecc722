"""Tracing must never perturb results: on/off byte-identity checks.

The telemetry subsystem is a pure observer, so enabling it must leave every
simulated quantity byte-identical — across fuzzed synthetic scenarios, the
batch runner (serial and parallel), and the figure 5/6 experiment tables.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.experiments import figure5, figure6, figure_data
from repro.experiments.base import ExperimentConfig
from repro.runner import BatchRunner, execute_scenario
from repro.workloads.synthetic import generate_synthetic_scenarios

#: Fuzz seeds for the identity sweep (each derives several scenarios).
FUZZ_SEEDS = (3, 7, 2014)


def _strip_trace(record_dict):
    """Drop the tracing-only fields so on/off record dicts can be compared."""
    out = json.loads(json.dumps(record_dict))
    out.pop("trace", None)
    out["scenario"].pop("trace", None)
    return out


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_fuzzed_scenarios_metrics_identical_with_tracing(seed):
    on = generate_synthetic_scenarios(3, seed=seed, scale="smoke", trace=True)
    off = generate_synthetic_scenarios(3, seed=seed, scale="smoke", trace=False)
    for traced_spec, plain_spec in zip(on, off):
        traced = execute_scenario(traced_spec)
        plain = execute_scenario(plain_spec)
        assert traced.trace_summary is not None
        assert plain.trace_summary is None
        assert _strip_trace(traced.to_dict()) == _strip_trace(plain.to_dict())


def test_batch_runner_carries_summaries_and_artifacts(tmp_path):
    scenarios = generate_synthetic_scenarios(3, seed=11, scale="smoke", trace=True)
    trace_dir = tmp_path / "traces"
    records = BatchRunner(jobs=1, trace_dir=str(trace_dir)).run(scenarios)
    for record in records:
        summary = record.trace_summary
        assert summary["events_total"] > 0
        (artifact,) = record.trace_artifacts
        document = json.loads(open(artifact).read())
        assert document["traceEvents"]
    assert len(list(trace_dir.iterdir())) == len(scenarios)


def test_serial_and_parallel_trace_artifacts_identical(tmp_path):
    scenarios = generate_synthetic_scenarios(3, seed=5, scale="smoke", trace=True)
    serial_dir, parallel_dir = tmp_path / "serial", tmp_path / "parallel"
    serial = BatchRunner(jobs=1, trace_dir=str(serial_dir)).run(scenarios)
    parallel = BatchRunner(jobs=2, trace_dir=str(parallel_dir)).run(scenarios)
    serial_files = sorted(p.name for p in serial_dir.iterdir())
    parallel_files = sorted(p.name for p in parallel_dir.iterdir())
    assert serial_files == parallel_files
    for name in serial_files:
        assert (serial_dir / name).read_text() == (parallel_dir / name).read_text()
    # Records agree too, modulo the (different) artifact directories.
    for s, p in zip(serial, parallel):
        s_dict, p_dict = s.to_dict(), p.to_dict()
        s_dict["trace"]["artifacts"] = p_dict["trace"]["artifacts"] = []
        assert s_dict == p_dict


def test_figure5_and_figure6_tables_identical_with_tracing():
    config = ExperimentConfig(
        scale="smoke",
        process_counts=(2,),
        workloads_per_benchmark=1,
        seed=2014,
        benchmarks=("lbm", "spmv", "sad"),
    )
    traced_config = dataclasses.replace(config, trace=True)
    plain_data = figure_data.collect("priority", config)
    traced_data = figure_data.collect("priority", traced_config)
    for module in (figure5, figure6):
        plain = module.run(config, data=plain_data)
        traced = module.run(traced_config, data=traced_data)
        assert plain.format() == traced.format()
        assert plain.to_dict() == traced.to_dict()
    # The traced collection actually traced every run.
    assert all(
        result.trace_summary is not None for result in traced_data.results.values()
    )
