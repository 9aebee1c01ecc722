"""Preemption controllers under open load: p99 request latency vs throughput.

The paper's latency-vs-throughput story (Sec. 3.2/6) restated in serving
terms: under a bursty open-loop load, how does the choice of preemption
*controller* trade the high-priority tenant's tail request latency against
sustained throughput?  The same two-tenant scenario as
:mod:`repro.experiments.serving` (bursty high-priority MMPP stream over a
Poisson background, heavy load) is run under the four controller schemes of
:mod:`repro.experiments.mechanism_choice`:

* ``static_cs`` — always context-switch: bounded preemption latency, so the
  high-priority tail is tight, but save/restore overhead taxes throughput;
* ``static_drain`` — always drain: no state-movement overhead, but the
  high-priority p99 inherits the background kernels' residual run times;
* ``hybrid`` — deadline-bounded draining with context-switch fallback;
* ``adaptive`` — cost-model selection per preemption request.

Per controller the report shows the high-priority tenant's p50/p99 request
latency, overall p99, the sliding-window throughput, SLO violations and
drops.  The expected shape mirrors the paper: the static endpoints bracket
the dynamic controllers, which approach context-switch tails at
draining-like throughput.

    repro-experiments slo_preemption --scale smoke
"""

from __future__ import annotations

from typing import List, Optional

from repro.experiments.base import ExperimentConfig, ExperimentResult
from repro.experiments.mechanism_choice import CONTROLLER_SCHEMES
from repro.experiments.serving import serving_scenario
from repro.runner import RunRecord

#: Load level used for the comparison (heavy: queueing pressure makes the
#: preemption path matter).
LOAD = "heavy"

#: The GPU is narrowed to this many SMs so kernels actually contend — on the
#: default 13-SM chip the small scaled kernels never overlap on an SM and no
#: controller is ever consulted (same rationale as
#: :data:`repro.experiments.preemption_latency.SYNTHETIC_NUM_SMS`).
NUM_SMS = 2


def run(config: Optional[ExperimentConfig] = None) -> ExperimentResult:
    """Compare the preemption controllers under bursty open load."""
    config = config if config is not None else ExperimentConfig()
    controllers = list(CONTROLLER_SCHEMES)
    scenarios = []
    for index, controller_key in enumerate(controllers):
        scheme = CONTROLLER_SCHEMES[controller_key]
        scenarios.append(
            serving_scenario(
                config,
                load=LOAD,
                scheme=scheme,
                workload_id=index,
                config_overrides={"gpu": {"num_sms": NUM_SMS}},
            )
        )
    records: List[RunRecord] = config.make_batch_runner().run(scenarios)

    result = ExperimentResult(
        name="SLO vs preemption",
        description=(
            "preemption controllers under bursty open load: high-priority "
            "tail latency vs sustained throughput"
        ),
        headers=[
            "Controller",
            "HP p50 (us)",
            "HP p99 (us)",
            "All p99 (us)",
            "Win req/s",
            "Throughput req/s",
            "SLO viol",
            "Dropped",
        ],
    )
    for controller_key, record in zip(controllers, records):
        summary = record.result.serving_summary
        tenants = summary["tenants"]
        # Tenant 0 (slot #0) is the high-priority bursty stream.
        hp_name = next(name for name in tenants if name.endswith("#0"))
        hp_latency = tenants[hp_name]["latency_us"]
        result.rows.append(
            [
                controller_key,
                round(hp_latency["p50"], 2),
                round(hp_latency["p99"], 2),
                round(summary["latency_us"]["p99"], 2),
                round(summary["window"]["throughput_rps"], 1),
                round(summary["throughput_rps"], 1),
                summary["slo_violations_total"],
                summary["queue"]["dropped"],
            ]
        )
        result.series[f"summary/{controller_key}"] = summary

    result.count_runs(record.result for record in records)
    result.notes.append(
        f"Scale preset: {config.scale}; heavy-load two-tenant open-loop "
        f"scenario (see the serving experiment) on a {NUM_SMS}-SM GPU, "
        f"seed {config.seed}."
    )
    result.notes.append(
        "Expected shape (paper Sec. 3.2): static context switch minimizes the "
        "high-priority p99, static draining maximizes throughput; hybrid and "
        "adaptive sit between the endpoints on both axes."
    )
    return result


__all__ = ["LOAD", "run"]
