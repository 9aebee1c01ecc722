"""Multi-GPU fleet serving: router comparison on a four-GPU cluster.

Extends the open-loop serving experiment (:mod:`repro.experiments.serving`)
across a fleet (see :mod:`repro.cluster`): the same bursty two-tenant
arrival mix is admitted by one cluster-level queue and routed to four
member GPUs by each registered router in turn — round-robin, least-loaded,
tenant-affinity and priority-spill.  The report compares cluster admission
counters, merged steady-state latency quantiles, SLO violations and the
per-GPU completion balance (min/max completed across members) per router.

Epoch batches shard over worker processes with ``--jobs``; results are
byte-identical to the serial run.

    repro-experiments fleet --scale smoke
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.cluster import run_fleet
from repro.experiments.base import ExperimentConfig, ExperimentResult
from repro.experiments.serving import LOAD_LEVELS, SERVING_SCHEME, SLO_BUDGET_US
from repro.runner import BatchRunner
from repro.scenario import ScenarioSpec

#: Routers compared by the experiment, in report order.
FLEET_ROUTERS = ("round_robin", "least_loaded", "tenant_affinity", "priority_spill")

#: Fleet size (the acceptance bar for the cluster layer is >= 4 members).
NUM_GPUS = 4

#: Simulated horizon at full workload scale (µs).  Shorter than the
#: single-GPU serving horizon: the fleet serves a proportionally heavier
#: offered load (one stream per member GPU would be idle-dominated).
HORIZON_US = 600_000.0


def fleet_scenario(
    config: ExperimentConfig,
    *,
    router: str,
    num_gpus: int = NUM_GPUS,
    workload_id: int = 0,
) -> ScenarioSpec:
    """Build the two-tenant, ``num_gpus``-member fleet scenario for a router."""
    hp_mean, bg_mean = LOAD_LEVELS["moderate"]
    factor = config.workload_scale().tb_scale
    horizon = HORIZON_US * factor
    return ScenarioSpec(
        scheme=SERVING_SCHEME,
        applications=(f"syn-{config.seed}-0", f"syn-{config.seed}-1"),
        high_priority_index=0,
        workload_id=workload_id,
        scale=config.scale,
        validate=config.validate,
        trace=config.trace,
        metrics=config.metrics_spec(),
        arrivals={
            "horizon_us": horizon,
            "warmup_us": horizon / 8.0,
            "window_us": horizon / 4.0,
            "queue_capacity": 32 * num_gpus,
            "admission": "drop",
            "max_inflight": 4,
            "tenants": [
                {
                    "process": "mmpp",
                    "seed": config.seed,
                    # The fleet absorbs num_gpus times the single-GPU load.
                    "mean_interarrival_us": hp_mean * factor / num_gpus,
                    "burstiness": 8.0,
                },
                {
                    "process": "poisson",
                    "seed": config.seed + 1,
                    "mean_interarrival_us": bg_mean * factor / num_gpus,
                },
            ],
        },
        slo={"default": SLO_BUDGET_US * factor},
        cluster={
            "num_gpus": num_gpus,
            "router": router,
            "epoch_us": horizon / 8.0,
        },
    )


def _latency_cells(latency: Dict[str, float]) -> List[object]:
    return [
        round(latency["p50"], 2),
        round(latency["p95"], 2),
        round(latency["p99"], 2),
    ]


def run(config: Optional[ExperimentConfig] = None) -> ExperimentResult:
    """Compare the registered routers on a four-GPU fleet."""
    config = config if config is not None else ExperimentConfig()
    scenarios = [
        fleet_scenario(config, router=router, workload_id=index)
        for index, router in enumerate(FLEET_ROUTERS)
    ]
    runner = None if config.jobs == 1 else BatchRunner(jobs=config.jobs)
    try:
        outcomes = [run_fleet(scenario, runner=runner) for scenario in scenarios]
    finally:
        if runner is not None:
            runner.close()

    result = ExperimentResult(
        name="Fleet",
        description=(
            f"open-loop serving across a {NUM_GPUS}-GPU fleet (PPQ + context "
            "switch): cluster admission, merged latency quantiles and per-GPU "
            "balance per router"
        ),
        headers=[
            "Router",
            "Arrived",
            "Admitted",
            "Dropped",
            "Completed",
            "p50 (us)",
            "p95 (us)",
            "p99 (us)",
            "SLO viol",
            "Balance (min/max)",
        ],
    )
    for router, outcome in zip(FLEET_ROUTERS, outcomes):
        summary = outcome.summary
        queue = summary["queue"]
        completed = [gpu["completed"] for gpu in summary["per_gpu"]]
        result.rows.append(
            [
                router,
                queue["arrived"],
                queue["admitted"],
                queue["dropped"],
                summary["completed"],
                *_latency_cells(summary["latency_us"]),
                summary["slo_violations_total"],
                f"{min(completed)}/{max(completed)}",
            ]
        )
        result.series[f"summary/{router}"] = summary

    result.violation_count = sum(len(outcome.violations) for outcome in outcomes)
    result.events_processed = sum(outcome.events_processed for outcome in outcomes)
    result.traced_run_count = sum(1 for o in outcomes if o.trace_events)
    result.trace_event_count = sum(len(o.trace_events) for o in outcomes)
    horizon = HORIZON_US * config.workload_scale().tb_scale
    result.notes.append(
        f"Scale preset: {config.scale}; {NUM_GPUS} GPUs, horizon {horizon:.0f} us, "
        f"8 sync epochs, moderate offered load x{NUM_GPUS}, seed {config.seed}."
    )
    result.notes.append(
        "One cluster-level admission queue feeds all members; epoch batches "
        "shard over --jobs worker processes with byte-identical results."
    )
    return result


__all__ = ["FLEET_ROUTERS", "NUM_GPUS", "HORIZON_US", "fleet_scenario", "run"]
