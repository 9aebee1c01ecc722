"""Synthetic scenario fuzzing: seed-derived multiprogram mixes end to end.

Beyond the paper's fixed Parboil mixes, this experiment derives arbitrary
scenarios — randomized kernel shapes, resource footprints, phase balance,
arrival staggers, priorities, process counts and scheduling schemes — from
``--seed`` (see :mod:`repro.workloads.synthetic`), fans them out through the
:class:`~repro.runner.BatchRunner` and reports the multiprogram metrics per
scenario.  With ``--validate`` every run is additionally observed by the
runtime invariant-validation layer (:mod:`repro.validation`); the violation
count per scenario is reported and must be zero for a correct simulator::

    repro-experiments synthetic --seed 7 --validate
"""

from __future__ import annotations

from typing import List, Optional

from repro.experiments.base import ExperimentConfig, ExperimentResult
from repro.runner import RunRecord
from repro.workloads.synthetic import generate_synthetic_scenarios


def run(config: Optional[ExperimentConfig] = None) -> ExperimentResult:
    """Fuzz ``workloads_per_count`` seed-derived scenarios and report them."""
    config = config if config is not None else ExperimentConfig()
    scenarios = generate_synthetic_scenarios(
        config.workloads_per_count,
        seed=config.seed,
        scale=config.scale,
        validate=config.validate,
        trace=config.trace,
        metrics=config.metrics_spec(),
    )
    records: List[RunRecord] = config.make_batch_runner().run(scenarios)

    result = ExperimentResult(
        name="Synthetic",
        description=(
            "seed-derived multiprogram scenarios (fuzzer) with per-scenario "
            "multiprogram metrics"
        ),
        headers=[
            "Scenario",
            "Processes",
            "Scheme",
            "ANTT",
            "STP",
            "Fairness",
            "Violations",
        ],
    )
    total_violations = 0
    for record in records:
        scenario = record.scenario
        metrics = record.result.metrics
        total_violations += len(record.violations)
        result.rows.append(
            [
                f"seed {scenario.workload_id}",
                scenario.num_processes,
                scenario.scheme.label,
                round(metrics.antt, 2),
                round(metrics.stp, 2),
                round(metrics.fairness, 2),
                len(record.violations) if scenario.validate else "-",
            ]
        )

    result.violation_count = total_violations
    result.events_processed = sum(r.result.events_processed for r in records)
    result.traced_run_count = sum(1 for r in records if r.trace_summary is not None)
    result.trace_event_count = sum(
        r.trace_summary["events_total"] for r in records if r.trace_summary is not None
    )
    result.series["records"] = [record.to_dict() for record in records]
    result.notes.append(
        f"Scale preset: {config.scale}; {len(scenarios)} scenarios derived from "
        f"seed {config.seed} (sub-seeds {config.seed * 1000}.."
        f"{config.seed * 1000 + len(scenarios) - 1}); the same seed always yields "
        "byte-identical scenario specs."
    )
    if config.validate:
        result.notes.append(
            f"Invariant validation: {total_violations} violation(s) across "
            f"{len(scenarios)} runs (must be 0 for a correct simulator)."
        )
    else:
        result.notes.append(
            "Invariant validation disabled; re-run with --validate to check the "
            "simulator's conservation laws on every scenario."
        )
    return result
