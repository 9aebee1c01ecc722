"""Open-loop serving under bursty load: steady-state tail latency and SLOs.

The paper's evaluation runs closed multiprogram mixes to completion; this
experiment drives the same simulated GPU with *open-loop* request streams
(see :mod:`repro.serving`): a bursty high-priority tenant (MMPP on-off
arrivals) shares the GPU with a steady Poisson background tenant under the
PPQ + context-switch scheme.  Three offered-load levels are swept; for each,
the report shows admission counters (arrived/admitted/dropped), the
warmup-discarded streaming latency quantiles (p50/p95/p99 via the P²
estimator), the sliding-window throughput and ANTT over the final window,
and the per-tenant SLO-violation counts.

All results are deterministic and byte-identical whether the scenarios run
serially or across worker processes (``--jobs``), with tracing on or off.

    repro-experiments serving --scale smoke
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.experiments.base import ExperimentConfig, ExperimentResult
from repro.runner import RunRecord
from repro.scenario import ScenarioSpec, SchemeSpec

#: Offered-load levels: mean interarrival times (µs, at full ``tb_scale=1``
#: workload scale) for the bursty high-priority tenant and the Poisson
#: background tenant.  Scaled by the active preset's ``tb_scale`` so the
#: arrival rate tracks the scaled kernel service times.
LOAD_LEVELS: Dict[str, Tuple[float, float]] = {
    "light": (5120.0, 7680.0),
    "moderate": (2560.0, 3840.0),
    "heavy": (1280.0, 1920.0),
}

#: Simulated horizon at full workload scale (µs); scaled like the loads.
HORIZON_US = 1_200_000.0
#: Default per-request latency budget at full scale (µs).
SLO_BUDGET_US = 3200.0

#: The serving scheme: priority scheduling with preemptive context switching
#: and priority transfers — the paper's preferred configuration.
SERVING_SCHEME = SchemeSpec(
    name="ppq_cs",
    policy="ppq",
    mechanism="context_switch",
    transfer_policy="npq",
)


def serving_scenario(
    config: ExperimentConfig,
    *,
    load: str,
    scheme: Optional[SchemeSpec] = None,
    workload_id: int = 0,
    config_overrides: Optional[Dict] = None,
) -> ScenarioSpec:
    """Build the two-tenant open-loop scenario for one load level."""
    hp_mean, bg_mean = LOAD_LEVELS[load]
    factor = config.workload_scale().tb_scale
    horizon = HORIZON_US * factor
    return ScenarioSpec(
        scheme=scheme if scheme is not None else SERVING_SCHEME,
        applications=(f"syn-{config.seed}-0", f"syn-{config.seed}-1"),
        high_priority_index=0,
        workload_id=workload_id,
        scale=config.scale,
        config_overrides=config_overrides or {},
        validate=config.validate,
        trace=config.trace,
        metrics=config.metrics_spec(),
        arrivals={
            "horizon_us": horizon,
            "warmup_us": horizon / 8.0,
            "window_us": horizon / 4.0,
            "queue_capacity": 32,
            "admission": "drop",
            "max_inflight": 4,
            "tenants": [
                {
                    "process": "mmpp",
                    "seed": config.seed,
                    "mean_interarrival_us": hp_mean * factor,
                    "burstiness": 8.0,
                },
                {
                    "process": "poisson",
                    "seed": config.seed + 1,
                    "mean_interarrival_us": bg_mean * factor,
                },
            ],
        },
        slo={"default": SLO_BUDGET_US * factor},
    )


def _latency_cells(latency: Dict[str, float]) -> List[object]:
    return [
        round(latency["p50"], 2),
        round(latency["p95"], 2),
        round(latency["p99"], 2),
    ]


def run(config: Optional[ExperimentConfig] = None) -> ExperimentResult:
    """Sweep the load levels and report steady-state serving metrics."""
    config = config if config is not None else ExperimentConfig()
    loads = list(LOAD_LEVELS)
    scenarios = [
        serving_scenario(config, load=load, workload_id=index)
        for index, load in enumerate(loads)
    ]
    records: List[RunRecord] = config.make_batch_runner().run(scenarios)

    result = ExperimentResult(
        name="Serving",
        description=(
            "open-loop bursty two-tenant serving (PPQ + context switch): "
            "steady-state latency quantiles, windowed throughput/ANTT, SLOs"
        ),
        headers=[
            "Load",
            "Tenant",
            "Arrived",
            "Admitted",
            "Dropped",
            "p50 (us)",
            "p95 (us)",
            "p99 (us)",
            "Win req/s",
            "Win ANTT",
            "SLO viol",
        ],
    )
    for load, record in zip(loads, records):
        summary = record.result.serving_summary
        queue = summary["queue"]
        window = summary["window"]
        result.rows.append(
            [
                load,
                "all",
                queue["arrived"],
                queue["admitted"],
                queue["dropped"],
                *_latency_cells(summary["latency_us"]),
                round(window["throughput_rps"], 1),
                round(window["antt"], 3),
                summary["slo_violations_total"],
            ]
        )
        for tenant, tenant_summary in summary["tenants"].items():
            result.rows.append(
                [
                    load,
                    tenant,
                    queue["per_tenant_arrived"].get(tenant, 0),
                    queue["per_tenant_admitted"].get(tenant, 0),
                    queue["per_tenant_dropped"].get(tenant, 0),
                    *_latency_cells(tenant_summary["latency_us"]),
                    "-",
                    "-",
                    tenant_summary["slo_violations"],
                ]
            )
        result.series[f"summary/{load}"] = summary

    result.count_runs(record.result for record in records)
    horizon = HORIZON_US * config.workload_scale().tb_scale
    result.notes.append(
        f"Scale preset: {config.scale}; horizon {horizon:.0f} us per load level "
        f"(first eighth discarded as warmup), window = horizon/4, seed {config.seed}."
    )
    result.notes.append(
        "Tenant 0 is the bursty high-priority stream (MMPP on-off), tenant 1 "
        "the Poisson background; quantiles are streaming P2 estimates over "
        "post-warmup completions."
    )
    return result


__all__ = [
    "LOAD_LEVELS",
    "HORIZON_US",
    "SLO_BUDGET_US",
    "SERVING_SCHEME",
    "serving_scenario",
    "run",
]
