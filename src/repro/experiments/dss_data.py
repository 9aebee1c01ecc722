"""Shared simulation data for the equal-sharing DSS experiments (Figures 7/8).

The paper evaluates the Dynamic Spatial Sharing policy with equal token
budgets on random workloads of 2/4/6/8 processes, against the FCFS baseline,
with both preemption mechanisms.  The data-transfer engine uses FCFS in all
cases (Sec. 4.4).  Simulation runs through
:class:`repro.runner.BatchRunner`, so ``ExperimentConfig(jobs=N)`` fans the
grid out over ``N`` worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.experiments.base import ExperimentConfig
from repro.experiments.priority_data import resolve_schemes
from repro.runner import BatchRunner
from repro.scenario import ScenarioSpec, SchemeSpec
from repro.workloads.multiprogram import (
    WorkloadResult,
    WorkloadRunner,
    WorkloadSpec,
    generate_random_workloads,
)

#: Scheme name -> declarative scheme spec.
DSS_SCHEMES: Dict[str, SchemeSpec] = {
    "fcfs": SchemeSpec(
        name="fcfs", policy="fcfs", mechanism="context_switch", transfer_policy="fcfs"
    ),
    "dss_cs": SchemeSpec(
        name="dss_cs", policy="dss", mechanism="context_switch", transfer_policy="fcfs"
    ),
    "dss_drain": SchemeSpec(
        name="dss_drain", policy="dss", mechanism="draining", transfer_policy="fcfs"
    ),
}


@dataclass
class DSSExperimentData:
    """All equal-sharing simulation results, keyed for reuse."""

    config: ExperimentConfig
    workloads: Dict[int, List[WorkloadSpec]] = field(default_factory=dict)
    #: (process_count, workload_id, scheme) -> result
    results: Dict[Tuple[int, int, str], WorkloadResult] = field(default_factory=dict)

    def result(self, process_count: int, workload_id: int, scheme: str) -> WorkloadResult:
        """Look up one simulated result."""
        return self.results[(process_count, workload_id, scheme)]


def collect(
    config: Optional[ExperimentConfig] = None,
    *,
    runner: Optional[WorkloadRunner] = None,
    schemes: Sequence[Union[str, SchemeSpec]] = tuple(DSS_SCHEMES),
    batch_runner: Optional[BatchRunner] = None,
) -> DSSExperimentData:
    """Simulate every random workload under FCFS and DSS (both mechanisms)."""
    config = config if config is not None else ExperimentConfig()
    scheme_specs = resolve_schemes(schemes, DSS_SCHEMES)
    benchmarks = list(config.benchmarks) if config.benchmarks else None
    data = DSSExperimentData(config=config)

    keys: List[Tuple[int, int, str]] = []
    scenarios: List[ScenarioSpec] = []
    for process_count in config.process_counts:
        specs = generate_random_workloads(
            process_count,
            config.workloads_per_count,
            seed=config.seed,
            benchmarks=benchmarks,
        )
        data.workloads[process_count] = specs
        for spec in specs:
            for scheme in scheme_specs:
                keys.append((process_count, spec.workload_id, scheme.label))
                scenarios.append(
                    ScenarioSpec.for_workload(
                        spec,
                        scheme,
                        scale=config.scale,
                        validate=config.validate,
                        trace=config.trace,
                        metrics=config.metrics_spec(),
                    )
                )

    if runner is not None:
        results = [runner.run_scenario(scenario) for scenario in scenarios]
    else:
        batch_runner = batch_runner if batch_runner is not None else config.make_batch_runner()
        results = [record.result for record in batch_runner.run(scenarios)]

    data.results = dict(zip(keys, results))
    return data
