"""Shared simulation data for the priority experiments (Figures 5 and 6).

Figures 5 and 6 evaluate the same set of priority workloads (one
high-priority process per workload, every benchmark taking the high-priority
role the same number of times) under several schedulers:

* ``fcfs`` — the non-prioritized baseline (current GPUs),
* ``npq`` — non-preemptive priority queues,
* ``ppq_cs`` / ``ppq_drain`` — preemptive priority queues with exclusive
  access, using the context-switch / draining mechanism,
* ``ppq_shared_cs`` / ``ppq_shared_drain`` — the shared-access variant
  (Figure 6b).

Running them is the expensive part, so both figures share one
:class:`PriorityExperimentData` instance.  Simulation runs through
:class:`repro.runner.BatchRunner`, so ``ExperimentConfig(jobs=N)`` fans the
grid out over ``N`` worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.experiments.base import ExperimentConfig
from repro.runner import BatchRunner
from repro.scenario import ScenarioSpec, SchemeSpec
from repro.workloads.multiprogram import (
    WorkloadResult,
    WorkloadRunner,
    WorkloadSpec,
    generate_priority_workloads,
)

#: Scheme name -> declarative scheme spec.
PRIORITY_SCHEMES: Dict[str, SchemeSpec] = {
    "fcfs": SchemeSpec(
        name="fcfs", policy="fcfs", mechanism="context_switch", transfer_policy="fcfs"
    ),
    "npq": SchemeSpec(
        name="npq", policy="npq", mechanism="context_switch", transfer_policy="npq"
    ),
    "ppq_cs": SchemeSpec(
        name="ppq_cs", policy="ppq", mechanism="context_switch", transfer_policy="npq"
    ),
    "ppq_drain": SchemeSpec(
        name="ppq_drain", policy="ppq", mechanism="draining", transfer_policy="npq"
    ),
    "ppq_shared_cs": SchemeSpec(
        name="ppq_shared_cs",
        policy="ppq_shared",
        mechanism="context_switch",
        transfer_policy="npq",
    ),
    "ppq_shared_drain": SchemeSpec(
        name="ppq_shared_drain",
        policy="ppq_shared",
        mechanism="draining",
        transfer_policy="npq",
    ),
}

#: Schemes needed by Figure 5 only (Figure 6 adds the shared-access ones).
FIGURE5_SCHEMES = ("fcfs", "npq", "ppq_cs", "ppq_drain")


def resolve_schemes(
    schemes: Sequence[Union[str, SchemeSpec]], catalog: Dict[str, SchemeSpec]
) -> List[SchemeSpec]:
    """Resolve scheme names (from ``catalog``) and inline specs to specs.

    Labels must be unique — results are keyed by them, so a collision would
    silently overwrite simulated data.
    """
    resolved = []
    for scheme in schemes:
        if isinstance(scheme, SchemeSpec):
            resolved.append(scheme)
        else:
            resolved.append(catalog[scheme])
    labels = [scheme.label for scheme in resolved]
    duplicates = {label for label in labels if labels.count(label) > 1}
    if duplicates:
        raise ValueError(
            f"duplicate scheme labels: {sorted(duplicates)}; give each SchemeSpec "
            "a distinct name"
        )
    return resolved


@dataclass
class PriorityExperimentData:
    """All priority-workload simulation results, keyed for reuse."""

    config: ExperimentConfig
    workloads: Dict[int, List[WorkloadSpec]] = field(default_factory=dict)
    #: (process_count, workload_id, scheme) -> result
    results: Dict[Tuple[int, int, str], WorkloadResult] = field(default_factory=dict)

    def result(self, process_count: int, workload_id: int, scheme: str) -> WorkloadResult:
        """Look up one simulated result."""
        return self.results[(process_count, workload_id, scheme)]

    def workload_ids(self, process_count: int) -> List[int]:
        """Workload ids evaluated at one process count."""
        return [spec.workload_id for spec in self.workloads[process_count]]


def collect(
    config: Optional[ExperimentConfig] = None,
    *,
    schemes: Sequence[Union[str, SchemeSpec]] = tuple(PRIORITY_SCHEMES),
    runner: Optional[WorkloadRunner] = None,
    batch_runner: Optional[BatchRunner] = None,
) -> PriorityExperimentData:
    """Simulate every priority workload under the requested schemes.

    The (process count × workload × scheme) grid is expanded into declarative
    :class:`ScenarioSpec` values and executed by a
    :class:`~repro.runner.BatchRunner` (``config.jobs`` workers).  Passing an
    explicit ``runner`` runs the scenarios serially through it instead
    (kept for tests that stub the runner).
    """
    config = config if config is not None else ExperimentConfig()
    scheme_specs = resolve_schemes(schemes, PRIORITY_SCHEMES)
    data = PriorityExperimentData(config=config)
    benchmarks = list(config.benchmarks) if config.benchmarks else None

    keys: List[Tuple[int, int, str]] = []
    scenarios: List[ScenarioSpec] = []
    for process_count in config.process_counts:
        specs = generate_priority_workloads(
            process_count,
            workloads_per_benchmark=config.workloads_per_benchmark,
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
