"""Shared fixtures and configuration for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures (or an
ablation of a design choice) through the same experiment harness that the
``repro-experiments`` CLI uses.  Because a single experiment involves many
simulated workloads, benchmarks run **one round with one iteration** by
default (wall-clock time per experiment, not micro-benchmark statistics).

The scale can be raised for higher-fidelity runs:

    pytest benchmarks/ --benchmark-only --repro-scale=reduced

pytest-benchmark's own ``--benchmark-json PATH`` writes the per-benchmark
timings as machine-readable JSON.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.experiments.base import ExperimentConfig


def pytest_addoption(parser):
    parser.addoption(
        "--repro-scale",
        action="store",
        default="smoke",
        choices=["smoke", "reduced", "full"],
        help="workload scale used by the experiment benchmarks (default: smoke)",
    )
    parser.addoption(
        "--repro-workloads",
        action="store",
        type=int,
        default=3,
        help="random workloads per process count for figure 7/8 benchmarks",
    )
    parser.addoption(
        "--repro-jobs",
        action="store",
        type=int,
        default=1,
        help="parallel simulation worker processes (0 = all CPUs, default: 1)",
    )


@pytest.fixture(scope="session")
def experiment_config(request) -> ExperimentConfig:
    """The experiment configuration used by every benchmark."""
    scale = request.config.getoption("--repro-scale")
    workloads = request.config.getoption("--repro-workloads")
    jobs = request.config.getoption("--repro-jobs")
    if scale == "smoke":
        base = ExperimentConfig.smoke()
    elif scale == "reduced":
        base = ExperimentConfig.reduced()
    else:
        base = ExperimentConfig.full()
    return dataclasses.replace(base, workloads_per_count=workloads, jobs=jobs)


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
