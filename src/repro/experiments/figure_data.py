"""Simulation grids shared by the paper's Figures 5-8.

Two (process count × workload × scheme) grids feed the four figures:

* ``priority`` (Figures 5 and 6, Sec. 4.2-4.3): priority workloads, one
  high-priority process each, every benchmark taking that role the same
  number of times.  They run under the non-prioritized FCFS baseline
  (current GPUs), non-preemptive priority queues (NPQ), and preemptive
  priority queues with exclusive (``ppq_*``) or shared access
  (``ppq_shared_*``, Figure 6b), each with the context-switch or the
  draining mechanism.
* ``dss`` (Figures 7 and 8, Sec. 4.4): random workloads under FCFS and the
  Dynamic Spatial Sharing policy with equal token budgets, with both
  mechanisms.  The data-transfer engine uses FCFS in all of them.

Running a grid is the expensive part, so the figures that read it share one
:class:`FigureData`.  :func:`collect` expands a grid into declarative
:class:`~repro.scenario.ScenarioSpec` values and runs them through a
:class:`~repro.runner.BatchRunner`, so ``ExperimentConfig(jobs=N)`` fans the
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
    WorkloadSpec,
    generate_priority_workloads,
    generate_random_workloads,
)

#: Scheme name -> declarative scheme spec, for both grids.
SCHEME_SPECS: Dict[str, SchemeSpec] = {
    name: SchemeSpec(
        name=name, policy=policy, mechanism=mechanism, transfer_policy=transfer_policy
    )
    for name, policy, mechanism, transfer_policy in (
        ("fcfs", "fcfs", "context_switch", "fcfs"),
        ("npq", "npq", "context_switch", "npq"),
        ("ppq_cs", "ppq", "context_switch", "npq"),
        ("ppq_drain", "ppq", "draining", "npq"),
        ("ppq_shared_cs", "ppq_shared", "context_switch", "npq"),
        ("ppq_shared_drain", "ppq_shared", "draining", "npq"),
        ("dss_cs", "dss", "context_switch", "fcfs"),
        ("dss_drain", "dss", "draining", "fcfs"),
    )
}

#: Grid name -> the schemes it runs, in run order.
GRIDS: Dict[str, Tuple[str, ...]] = {
    "priority": (
        "fcfs",
        "npq",
        "ppq_cs",
        "ppq_drain",
        "ppq_shared_cs",
        "ppq_shared_drain",
    ),
    "dss": ("fcfs", "dss_cs", "dss_drain"),
}

#: Schemes needed by Figure 5 only (Figure 6 adds the shared-access ones).
FIGURE5_SCHEMES = GRIDS["priority"][:4]


def resolve_schemes(schemes: Sequence[Union[str, SchemeSpec]]) -> List[SchemeSpec]:
    """Resolve scheme names (from :data:`SCHEME_SPECS`) and inline specs.

    Labels must be unique: results are keyed by them, so a collision would
    silently overwrite simulated data.
    """
    resolved = [
        scheme if isinstance(scheme, SchemeSpec) else SCHEME_SPECS[scheme]
        for scheme in schemes
    ]
    labels = [scheme.label for scheme in resolved]
    duplicates = {label for label in labels if labels.count(label) > 1}
    if duplicates:
        raise ValueError(
            f"duplicate scheme labels: {sorted(duplicates)}; give each SchemeSpec "
            "a distinct name"
        )
    return resolved


@dataclass
class FigureData:
    """One grid's simulation results, keyed for reuse."""

    workloads: Dict[int, List[WorkloadSpec]] = field(default_factory=dict)
    #: (process_count, workload_id, scheme) -> result
    results: Dict[Tuple[int, int, str], WorkloadResult] = field(default_factory=dict)

    def result(self, process_count: int, workload_id: int, scheme: str) -> WorkloadResult:
        """Look up one simulated result."""
        return self.results[(process_count, workload_id, scheme)]


def grid_workloads(
    grid: str, config: ExperimentConfig, process_count: int
) -> List[WorkloadSpec]:
    """The workloads ``grid`` evaluates at one process count."""
    benchmarks = list(config.benchmarks) if config.benchmarks else None
    if grid == "priority":
        return generate_priority_workloads(
            process_count,
            workloads_per_benchmark=config.workloads_per_benchmark,
            seed=config.seed,
            benchmarks=benchmarks,
        )
    return generate_random_workloads(
        process_count, config.workloads_per_count, seed=config.seed, benchmarks=benchmarks
    )


def collect(
    grid: str,
    config: Optional[ExperimentConfig] = None,
    *,
    schemes: Optional[Sequence[Union[str, SchemeSpec]]] = None,
    batch_runner: Optional[BatchRunner] = None,
) -> FigureData:
    """Simulate every workload of ``grid`` under ``schemes`` (default: the grid's).

    ``batch_runner`` defaults to ``config.make_batch_runner()``.
    """
    if grid not in GRIDS:
        raise ValueError(f"unknown grid {grid!r} (choose from {', '.join(GRIDS)})")
    config = config if config is not None else ExperimentConfig()
    scheme_specs = resolve_schemes(GRIDS[grid] if schemes is None else schemes)
    data = FigureData()
    keys: List[Tuple[int, int, str]] = []
    scenarios: List[ScenarioSpec] = []
    for process_count in config.process_counts:
        specs = data.workloads[process_count] = grid_workloads(grid, config, process_count)
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
    if batch_runner is None:
        batch_runner = config.make_batch_runner()
    records = batch_runner.run(scenarios)
    data.results = {key: record.result for key, record in zip(keys, records)}
    return data
